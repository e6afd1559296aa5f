package disk_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

const (
	guard  = 64
	guardB = 0xA5
)

// TestReadIntoMatchesRead reads into a guarded sub-slice of a larger
// buffer — healthy, failed up front, and failed mid-transfer — and
// checks the bytes and error against Read, the guards, and that done
// fires exactly once.
func TestReadIntoMatchesRead(t *testing.T) {
	modes := []struct {
		name             string
		before, inFlight bool
		want             error
	}{
		{"healthy", false, false, nil},
		{"failed", true, false, disk.ErrFailed},
		{"inflight", false, true, disk.ErrFailed},
	}
	cases := []struct {
		off int64
		n   int
	}{{0, 1}, {4093, 4100}, {MB - 7, 7}, {12345, 256 << 10}}
	for _, m := range modes {
		for _, c := range cases {
			setup := func() (*sim.Sim, *disk.Disk) {
				s := sim.New()
				d := disk.New(s, disk.DefaultParams(), 4*MB)
				syncWrite(t, s, d, 0, bytes.Repeat([]byte("pegasus!"), 4*MB/8))
				if m.before {
					d.Fail()
				}
				return s, d
			}
			inject := func(s *sim.Sim, d *disk.Disk) {
				if m.inFlight {
					s.After(sim.Microsecond, d.Fail)
				}
			}
			s, d := setup()
			var ref []byte
			var refErr error
			d.Read(c.off, c.n, func(b []byte, err error) { ref, refErr = b, err })
			inject(s, d)
			s.Run()

			s, d = setup()
			buf := bytes.Repeat([]byte{guardB}, c.n+2*guard)
			dst := buf[guard : guard+c.n]
			calls := 0
			var err error
			d.ReadInto(c.off, dst, func(e error) { err = e; calls++ })
			inject(s, d)
			s.Run()

			if calls != 1 {
				t.Fatalf("%s off=%d: done fired %d times", m.name, c.off, calls)
			}
			for i := 0; i < guard; i++ {
				if buf[i] != guardB || buf[len(buf)-1-i] != guardB {
					t.Fatalf("%s off=%d: guard byte clobbered", m.name, c.off)
				}
			}
			if !errors.Is(err, m.want) || !errors.Is(refErr, m.want) {
				t.Fatalf("%s off=%d: ReadInto err %v, Read err %v, want %v", m.name, c.off, err, refErr, m.want)
			}
			if err == nil && !bytes.Equal(dst, ref) {
				t.Fatalf("%s off=%d: ReadInto bytes differ from Read", m.name, c.off)
			}
		}
	}
}

func TestReadIntoBounds(t *testing.T) {
	s := sim.New()
	d := disk.New(s, disk.DefaultParams(), MB)
	calls := 0
	var err error
	d.ReadInto(MB-4, make([]byte, 8), func(e error) { err = e; calls++ })
	s.Run()
	if calls != 1 || !errors.Is(err, disk.ErrBounds) {
		t.Fatalf("calls=%d err=%v, want one ErrBounds", calls, err)
	}
}
