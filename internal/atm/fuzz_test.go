package atm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// refSegment is the textbook AAL5 segmenter: assemble the whole padded
// CS-PDU in one buffer, CRC it, then cut it into cells. SegmentHeader
// must produce exactly its cells for frame = hdr ++ payload[len(hdr):].
func refSegment(vci VCI, uu byte, frame []byte) []Cell {
	ncells := (len(frame) + trailerSize + PayloadSize - 1) / PayloadSize
	padded := make([]byte, ncells*PayloadSize)
	copy(padded, frame)
	tr := padded[len(padded)-trailerSize:]
	tr[0] = uu
	binary.BigEndian.PutUint16(tr[2:], uint16(len(frame)))
	binary.BigEndian.PutUint32(tr[4:], crc32.ChecksumIEEE(padded[:len(padded)-4]))
	cells := make([]Cell, ncells)
	for i := range cells {
		cells[i].VCI = vci
		cells[i].PTI = PTIUser0
		copy(cells[i].Payload[:], padded[i*PayloadSize:])
	}
	cells[ncells-1].PTI = PTIUser1
	return cells
}

// FuzzSegmentReassemble checks SegmentHeader against the reference
// segmenter and the reassembler. The payload is n bytes of seed
// repeated (n may reach MaxFrame without a 64 KiB corpus entry). The
// seed corpus in testdata/fuzz covers payloads of 0, 39, 40, 41, 47,
// 48, 49 and MaxFrame bytes and a header longer than its payload.
func FuzzSegmentReassemble(f *testing.F) {
	f.Add([]byte("hdr"), []byte{1, 2, 3}, uint16(41), byte(7))
	f.Fuzz(func(t *testing.T, hdr, seed []byte, n uint16, uu byte) {
		p := make([]byte, n)
		for i := range p {
			if len(seed) > 0 {
				p[i] = seed[i%len(seed)]
			} else {
				p[i] = byte(i * 7)
			}
		}
		pOrig := bytes.Clone(p)
		hOrig := bytes.Clone(hdr)
		const vci = VCI(0x1234)

		cells, err := SegmentHeader(vci, uu, hdr, p)
		if !bytes.Equal(p, pOrig) || !bytes.Equal(hdr, hOrig) {
			t.Fatal("SegmentHeader wrote into its inputs")
		}
		if len(hdr) > len(p) {
			if !errors.Is(err, ErrHeader) || cells != nil {
				t.Fatalf("header %d > payload %d: err = %v, %d cells", len(hdr), len(p), err, len(cells))
			}
			return
		}
		if err != nil {
			t.Fatalf("SegmentHeader(%d+%d): %v", len(hdr), len(p)-len(hdr), err)
		}
		frame := append(bytes.Clone(hdr), p[len(hdr):]...)
		ref := refSegment(vci, uu, frame)
		if len(cells) != len(ref) || len(cells) != CellsFor(len(p)) {
			t.Fatalf("%d cells, reference %d, CellsFor %d", len(cells), len(ref), CellsFor(len(p)))
		}
		for i := range cells {
			if cells[i] != ref[i] {
				t.Fatalf("cell %d of %d differs from the reference segmenter", i, len(cells))
			}
		}

		r := NewReassembler()
		var got *Frame
		for i, c := range cells {
			fr, err := r.Push(c)
			if err != nil {
				t.Fatalf("Push cell %d: %v", i, err)
			}
			if fr != nil && i != len(cells)-1 {
				t.Fatalf("frame completed early at cell %d", i)
			}
			got = fr
		}
		if got == nil {
			t.Fatal("no frame reassembled")
		}
		if got.VCI != vci || got.UU != uu || !bytes.Equal(got.Payload, frame) {
			t.Fatalf("reassembled VCI %d UU %#x, %d bytes; want hdr ++ payload[len(hdr):] (%d bytes)",
				got.VCI, got.UU, len(got.Payload), len(frame))
		}
		if r.Dropped != 0 {
			t.Fatalf("reassembler dropped %d frames", r.Dropped)
		}
	})
}
