package loadgen

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// integritySink sits between a viewer's downlink and its demux: it
// reassembles every delivered frame through AAL5 (CRC checked) and
// records what arrived, then hands the cells on so the scoreboard runs
// unchanged.
type integritySink struct {
	t      *testing.T
	next   fabric.Handler
	ras    *atm.Reassembler
	frames *[]deliveredFrame
}

// deliveredFrame is one reassembled frame: its circuit, the source's
// sequence number from the header, and a checksum of the bytes after
// the header (the title bytes the disks and the cache supplied).
type deliveredFrame struct {
	vci  atm.VCI
	seq  uint32
	n    int
	body uint32
}

func (k *integritySink) push(c atm.Cell) {
	f, err := k.ras.Push(c)
	if err != nil {
		k.t.Errorf("vci %d: AAL5 reassembly: %v", c.VCI, err)
		return
	}
	if f == nil {
		return
	}
	if len(f.Payload) < headerSize || binary.BigEndian.Uint32(f.Payload[12:]) != magic {
		k.t.Errorf("vci %d: frame without a loadgen header", f.VCI)
		return
	}
	*k.frames = append(*k.frames, deliveredFrame{
		vci:  f.VCI,
		seq:  binary.BigEndian.Uint32(f.Payload[8:]),
		n:    len(f.Payload),
		body: crc32.ChecksumIEEE(f.Payload[headerSize:]),
	})
}

func (k *integritySink) HandleCell(c atm.Cell) {
	k.push(c)
	k.next.HandleCell(c)
}

func (k *integritySink) HandleBurst(b fabric.Burst) {
	for _, c := range b.Cells {
		k.push(c)
	}
	k.next.(fabric.BurstHandler).HandleBurst(b)
}

// servedTitle names what a circuit carries: the title and the server
// whose array holds it.
type servedTitle struct {
	ss    *core.StorageServer
	title string
}

// interceptViewers puts an integritySink in front of every endpoint's
// demux and returns the log they fill.
func interceptViewers(t *testing.T, eps []*core.Endpoint) *[]deliveredFrame {
	frames := new([]deliveredFrame)
	seen := make(map[*core.Endpoint]bool)
	for _, ep := range eps {
		if seen[ep] {
			continue
		}
		seen[ep] = true
		ep.FromSwitch.SetSink(&integritySink{t: t, next: ep.Demux, ras: atm.NewReassembler(), frames: frames})
	}
	return frames
}

// readTitle reads a whole title back through the file service.
func readTitle(t *testing.T, clock *sim.Sim, ss *core.StorageServer, title string, size int64) []byte {
	t.Helper()
	var out []byte
	var err error
	done := false
	ss.Server.Read(title, 0, int(size), func(b []byte, e error) { out, err, done = b, e, true })
	for i := 0; !done && i < 100; i++ {
		clock.RunFor(100 * sim.Millisecond)
	}
	if !done || err != nil {
		t.Fatalf("read back %s: done=%v err=%v", title, done, err)
	}
	return out
}

// checkFrames verifies every delivered frame: the bytes after its
// header must be the title's bytes at seq×FrameBytes mod title size,
// read back through the file service.
func checkFrames(t *testing.T, clock *sim.Sim, cfg Config, titleSize int64, frames []deliveredFrame, byVCI map[atm.VCI]servedTitle) {
	t.Helper()
	if len(frames) == 0 {
		t.Fatal("no frames delivered")
	}
	titles := make(map[servedTitle][]byte)
	fb := int64(cfg.FrameBytes)
	for i, f := range frames {
		src, ok := byVCI[f.vci]
		if !ok {
			t.Fatalf("frame %d on unknown circuit %d", i, f.vci)
		}
		data, ok := titles[src]
		if !ok {
			data = readTitle(t, clock, src.ss, src.title, titleSize)
			titles[src] = data
		}
		off := int64(f.seq) * fb % titleSize
		want := data[off+headerSize : off+fb]
		if f.n != int(fb) || f.body != crc32.ChecksumIEEE(want) {
			t.Fatalf("frame %d (%s seq %d, %d bytes) does not carry the title bytes at offset %d",
				i, src.title, f.seq, f.n, off)
		}
	}
}

func storageTitleSize(cfg Config) int64 {
	return int64(cfg.TitleRounds) * int64(cfg.FrameHz) * int64(cfg.Round) / int64(sim.Second) * int64(cfg.FrameBytes)
}

// runStorageIntegrity runs the from-storage scenario with every frame
// checked; failDisk >= 0 fails that member of the serving array half a
// round in, so every later window is rebuilt from parity.
func runStorageIntegrity(t *testing.T, failDisk int) Result {
	cfg := storageCfg()
	sc := Build(cfg)
	cfg = sc.cfg
	var eps []*core.Endpoint
	for _, st := range sc.Streams() {
		eps = append(eps, st.dsts...)
	}
	frames := interceptViewers(t, eps)
	arr := sc.Servers[0].Server.FS().Array()
	if failDisk >= 0 {
		// After the build-time priming reads have landed: a stream whose
		// priming window fails never starts (no retry before playout).
		sc.site.Clock.CallAfter(cfg.Round/2, func() { arr.FailDisk(failDisk) })
	}
	r := sc.Run()
	if failDisk >= 0 && arr.Stats.Reconstructions == 0 {
		t.Fatal("no read was rebuilt from parity")
	}
	if int64(len(*frames)) != r.FramesDelivered {
		t.Fatalf("reassembled %d frames, scoreboard delivered %d", len(*frames), r.FramesDelivered)
	}
	byVCI := make(map[atm.VCI]servedTitle)
	for _, st := range sc.Streams() {
		byVCI[st.sess.VCI()] = servedTitle{st.server, st.title}
	}
	checkFrames(t, sc.site.Sim, cfg, storageTitleSize(cfg), *frames, byVCI)
	// The read-back reference itself must be what preloadTitles wrote
	// (64 KiB chunks of byte(i*17), so byte(off*17) at every offset),
	// or a fault shared by the serving and read-back paths would hide.
	for _, st := range sc.Streams() {
		data := readTitle(t, sc.site.Sim, st.server, st.title, storageTitleSize(cfg))
		for off, b := range data {
			if b != byte(off*17) {
				t.Fatalf("%s reads back %#x at %d, preload wrote %#x", st.title, b, off, byte(off*17))
			}
		}
	}
	return r
}

// TestPayloadIntegrityFromStorage: with the RAM tier off, every frame a
// viewer reassembles carries exactly the title bytes its sequence
// number names — the two-copy data path (platter → window → cells)
// delivers the right bytes, not merely the right count.
func TestPayloadIntegrityFromStorage(t *testing.T) {
	r := runStorageIntegrity(t, -1)
	if r.Underruns != 0 {
		t.Fatalf("%d underruns", r.Underruns)
	}
}

// TestPayloadIntegrityDegradedArray serves from an array with one data
// disk failed, so windows are rebuilt from parity into the caller's
// buffer. Each small title starts a fresh segment and fits in its
// first chunk, so it lives on data disk 0: that is the one to lose.
func TestPayloadIntegrityDegradedArray(t *testing.T) {
	r := runStorageIntegrity(t, 0)
	if r.DiskBytesRead == 0 {
		t.Fatal("no bytes read off the degraded array")
	}
}

// TestPayloadIntegrityIntervalCache runs the cache-bearing cluster
// scenario: followers play the leader's wake windows shared, not
// copied. Every delivered frame must still carry the right title bytes,
// and a wake window snapshotted mid-run must be byte-identical after
// its leader and followers have played it — windows are read-only.
func TestPayloadIntegrityIntervalCache(t *testing.T) {
	cfg := telemetryCfg()
	sc := Build(cfg)
	cfg = sc.cfg
	var eps []*core.Endpoint
	for _, req := range sc.requests {
		eps = append(eps, req.viewer)
	}
	frames := interceptViewers(t, eps)

	titleSize := storageTitleSize(cfg)
	roundBytes := titleSize / int64(cfg.TitleRounds)
	type snapshot struct {
		req    *clusterReq
		off    int64
		window []byte
		sum    uint32
	}
	var snap *snapshot
	// Mid-run, once followers ride wakes: pick a resident window of a
	// title that has a cache-served viewer.
	sc.site.Clock.CallAfter(cfg.Duration/2, func() {
		for _, req := range sc.requests {
			if req.st == nil || !req.st.CM().CacheServed() {
				continue
			}
			cm := req.st.Node().SS.CM
			for k := int64(0); k < int64(cfg.TitleRounds); k++ {
				if w, ok := cm.WakeWindow(req.title, k*roundBytes); ok {
					snap = &snapshot{req, k * roundBytes, w, crc32.ChecksumIEEE(w)}
					return
				}
			}
		}
	})
	r := sc.Run()
	if int64(len(*frames)) != r.FramesDelivered {
		t.Fatalf("reassembled %d frames, scoreboard delivered %d", len(*frames), r.FramesDelivered)
	}
	if r.CacheHits == 0 {
		t.Fatal("no window was served from the RAM tier")
	}
	if snap == nil {
		t.Fatal("no resident wake window of a cache-served title at mid-run")
	}
	// Two more rounds than the title is long passed after the snapshot:
	// every viewer of the title has played that window since.
	if cfg.Duration/2 < sim.Duration(cfg.TitleRounds+2)*cfg.Round {
		t.Fatalf("run too short to replay the wake after the snapshot")
	}
	if crc32.ChecksumIEEE(snap.window) != snap.sum {
		t.Fatalf("wake window of %s changed after its viewers played it", snap.req.title)
	}
	data := readTitle(t, sc.site.Sim, snap.req.st.Node().SS, snap.req.title, titleSize)
	if !bytes.Equal(snap.window, data[snap.off:snap.off+roundBytes]) {
		t.Fatalf("wake window of %s at %d is not the title's bytes", snap.req.title, snap.off)
	}

	byVCI := make(map[atm.VCI]servedTitle)
	for _, req := range sc.requests {
		if req.st != nil {
			byVCI[req.vci] = servedTitle{req.st.Node().SS, req.title}
		}
	}
	checkFrames(t, sc.site.Sim, cfg, titleSize, *frames, byVCI)
}
