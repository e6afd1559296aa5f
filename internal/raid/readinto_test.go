package raid_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/raid"
	"repro/internal/sim"
)

// Small geometry so every case crosses chunk and segment boundaries
// cheaply: 1 KiB chunks, 4 KiB segments.
const (
	riSeg   = 4 << 10
	riChunk = riSeg / raid.DataDisks
	riNSeg  = 4
	guard   = 64
	guardB  = 0xA5
)

// failMode is one array condition a read runs under.
type failMode struct {
	name     string
	before   []int // members failed before the read is issued
	inFlight int   // member failed while the read is in flight (-1: none)
}

func failModes() []failMode {
	modes := []failMode{{name: "healthy", inFlight: -1}}
	for i := 0; i < raid.TotalDisks; i++ {
		modes = append(modes, failMode{name: fmt.Sprintf("failed-%d", i), before: []int{i}, inFlight: -1})
	}
	for i := 0; i < raid.TotalDisks; i++ {
		modes = append(modes, failMode{name: fmt.Sprintf("inflight-%d", i), inFlight: i})
	}
	return modes
}

// readCases cross chunk boundaries, segment boundaries, or both.
var readCases = []struct{ off, n int64 }{
	{0, 10},                    // inside one chunk
	{riChunk - 100, 200},       // chunk boundary
	{riSeg - 50, 100},          // segment boundary (disk 3 → disk 0)
	{500, 3 * riSeg},           // mid-chunk start over three segments
	{riSeg, riSeg},             // exactly one segment
	{0, riNSeg * riSeg},        // the whole array
	{2*riSeg + 3, riChunk + 7}, // chunk-unaligned at both ends
}

// riArray builds an array whose linear address space holds a known
// pattern, then applies mode's up-front failures.
func riArray(t *testing.T, mode failMode) (*sim.Sim, *raid.Array, []byte) {
	t.Helper()
	s := sim.New()
	a := raid.New(s, disk.DefaultParams(), riSeg, riNSeg)
	want := make([]byte, riNSeg*riSeg)
	for i := range want {
		want[i] = byte(i*31 + i>>8)
	}
	for seg := int64(0); seg < riNSeg; seg++ {
		var err error
		a.WriteSegment(seg, want[seg*riSeg:(seg+1)*riSeg], func(e error) { err = e })
		s.Run()
		if err != nil {
			t.Fatalf("WriteSegment(%d): %v", seg, err)
		}
	}
	for _, i := range mode.before {
		a.FailDisk(i)
	}
	return s, a, want
}

// injectInFlight fails mode's in-flight member one microsecond after
// the read is issued — long before any head has positioned.
func injectInFlight(s *sim.Sim, a *raid.Array, mode failMode) {
	if mode.inFlight >= 0 {
		i := mode.inFlight
		s.After(sim.Microsecond, func() { a.FailDisk(i) })
	}
}

// guarded returns a buffer with guard bytes around an n-byte dst.
func guarded(n int64) (buf, dst []byte) {
	buf = bytes.Repeat([]byte{guardB}, int(n)+2*guard)
	return buf, buf[guard : guard+int(n)]
}

func checkGuards(t *testing.T, buf []byte) {
	t.Helper()
	n := len(buf)
	for i := 0; i < guard; i++ {
		if buf[i] != guardB || buf[n-1-i] != guardB {
			t.Fatalf("guard byte clobbered (offset %d from an edge)", i)
		}
	}
}

func TestReadIntoMatchesRead(t *testing.T) {
	for _, mode := range failModes() {
		for _, c := range readCases {
			t.Run(fmt.Sprintf("%s/off=%d/n=%d", mode.name, c.off, c.n), func(t *testing.T) {
				// Reference: the allocating Read under the same condition.
				s, a, want := riArray(t, mode)
				var ref []byte
				var refErr error
				a.Read(c.off, int(c.n), func(b []byte, err error) { ref, refErr = b, err })
				injectInFlight(s, a, mode)
				s.Run()
				if refErr == nil && !bytes.Equal(ref, want[c.off:c.off+c.n]) {
					t.Fatal("Read returned wrong bytes")
				}

				s, a, _ = riArray(t, mode)
				buf, dst := guarded(c.n)
				calls := 0
				var err error
				a.ReadInto(c.off, dst, func(e error) { err = e; calls++ })
				injectInFlight(s, a, mode)
				s.Run()
				if calls != 1 {
					t.Fatalf("done fired %d times, want 1", calls)
				}
				checkGuards(t, buf)
				if !errors.Is(err, refErr) || !errors.Is(refErr, err) {
					t.Fatalf("ReadInto err = %v, Read err = %v", err, refErr)
				}
				if err == nil && !bytes.Equal(dst, ref) {
					t.Fatal("ReadInto bytes differ from Read")
				}
				if mode.inFlight < 0 && err != nil {
					t.Fatalf("single up-front failure must be transparent: %v", err)
				}
			})
		}
	}
}

func TestReadIntoSecondFailure(t *testing.T) {
	for first := 0; first < raid.TotalDisks; first++ {
		for _, c := range readCases {
			// The member holding the read's first byte is always touched;
			// losing it alongside any other member is unrecoverable.
			touched := int(c.off%riSeg) / riChunk
			second := touched
			if second == first {
				second = (first + 1) % raid.TotalDisks
			}
			s, a, _ := riArray(t, failMode{before: []int{first, second}, inFlight: -1})
			buf, dst := guarded(c.n)
			calls := 0
			var err error
			a.ReadInto(c.off, dst, func(e error) { err = e; calls++ })
			s.Run()
			if calls != 1 {
				t.Fatalf("failed %d+%d off=%d: done fired %d times", first, second, c.off, calls)
			}
			checkGuards(t, buf)
			if !errors.Is(err, raid.ErrTooManyFailures) {
				t.Fatalf("failed %d+%d off=%d: err = %v, want ErrTooManyFailures", first, second, c.off, err)
			}
			var segErr error
			a.ReadSegment(0, func(_ []byte, e error) { segErr = e })
			s.Run()
			if !errors.Is(segErr, raid.ErrTooManyFailures) {
				t.Fatalf("ReadSegment with %d+%d failed: err = %v", first, second, segErr)
			}
		}
	}
}

func TestReadIntoEmptyAndBounds(t *testing.T) {
	s, a, _ := riArray(t, failMode{inFlight: -1})
	calls := 0
	var err error
	a.ReadInto(0, nil, func(e error) { err = e; calls++ })
	s.Run()
	if calls != 1 || err != nil {
		t.Fatalf("empty read: calls=%d err=%v", calls, err)
	}
	buf, dst := guarded(16)
	a.ReadInto(riNSeg*riSeg-8, dst, func(e error) { err = e; calls++ })
	s.Run()
	if calls != 2 || !errors.Is(err, disk.ErrBounds) {
		t.Fatalf("out-of-range read: calls=%d err=%v", calls, err)
	}
	checkGuards(t, buf)
}

// ReadSegment lands every chunk in its slot of one buffer, the lost
// one rebuilt in place from parity; it must agree with the linear read
// under every single-member condition.
func TestReadSegmentUnderFailures(t *testing.T) {
	for _, mode := range failModes() {
		s, a, want := riArray(t, mode)
		var got []byte
		var err error
		calls := 0
		a.ReadSegment(2, func(b []byte, e error) { got, err = b, e; calls++ })
		injectInFlight(s, a, mode)
		s.Run()
		if calls != 1 {
			t.Fatalf("%s: done fired %d times", mode.name, calls)
		}
		if err != nil {
			if mode.inFlight < 0 {
				t.Fatalf("%s: %v", mode.name, err)
			}
			continue
		}
		if !bytes.Equal(got, want[2*riSeg:3*riSeg]) {
			t.Fatalf("%s: segment bytes wrong", mode.name)
		}
	}
}
