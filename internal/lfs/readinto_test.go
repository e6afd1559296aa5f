package lfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/lfs"
	"repro/internal/raid"
	"repro/internal/sim"
)

const (
	guard  = 64
	guardB = 0xA5
	riKB   = 1 << 10
)

// riFS builds a store holding one file laid out over several segments:
// [0,150K) and [200K,300K) synced to the array (a hole between them),
// and [300K,310K) still in the open log segment. With cacheBlocks 0
// every read of synced data reaches the disks.
func riFS(t *testing.T, cacheBlocks int) (*sim.Sim, *lfs.FS, lfs.Pnode, []byte) {
	t.Helper()
	s := sim.New()
	arr := raid.New(s, disk.DefaultParams(), segSize, 16)
	cfg := lfs.DefaultConfig(segSize)
	cfg.CacheBlocks = cacheBlocks
	fs := lfs.New(s, arr, cfg)
	pn := fs.Create(false)
	want := make([]byte, 310*riKB)
	for i := range want {
		want[i] = byte(i*17 + i>>10)
	}
	clear(want[150*riKB : 200*riKB])
	write(t, fs, pn, 0, want[:150*riKB])
	write(t, fs, pn, 200*riKB, want[200*riKB:300*riKB])
	syncFS(t, s, fs)
	write(t, fs, pn, 300*riKB, want[300*riKB:])
	return s, fs, pn, want
}

var lfsReadCases = []struct{ off, n int64 }{
	{0, 10},
	{60 * riKB, 10 * riKB},      // crosses the first segment's summary boundary
	{140 * riKB, 70 * riKB},     // into, across and out of the hole
	{0, 310 * riKB},             // the whole file, open-segment tail included
	{295 * riKB, 15 * riKB},     // array then open segment
	{305 * riKB, 10 * riKB},     // past end of file: zeros
	{7, 3*segSize + 4*riKB + 1}, // unaligned, many segments
}

func TestReadIntoMatchesRead(t *testing.T) {
	type mode struct {
		name     string
		before   int // member failed up front (-1: none)
		inFlight int // member failed while the read is in flight
	}
	modes := []mode{{"healthy", -1, -1}}
	for i := 0; i < raid.TotalDisks; i++ {
		modes = append(modes, mode{fmt.Sprintf("failed-%d", i), i, -1})
	}
	for i := 0; i < raid.TotalDisks; i++ {
		modes = append(modes, mode{fmt.Sprintf("inflight-%d", i), -1, i})
	}
	for _, m := range modes {
		for _, c := range lfsReadCases {
			setup := func() (*sim.Sim, *lfs.FS, lfs.Pnode, []byte) {
				s, fs, pn, want := riFS(t, 0)
				if m.before >= 0 {
					fs.Array().FailDisk(m.before)
				}
				return s, fs, pn, want
			}
			inject := func(s *sim.Sim, fs *lfs.FS) {
				if i := m.inFlight; i >= 0 {
					s.After(sim.Microsecond, func() { fs.Array().FailDisk(i) })
				}
			}
			s, fs, pn, want := setup()
			var ref []byte
			var refErr error
			fs.Read(pn, c.off, int(c.n), func(b []byte, err error) { ref, refErr = b, err })
			inject(s, fs)
			s.Run()
			if refErr == nil {
				exp := make([]byte, c.n)
				if c.off < int64(len(want)) {
					copy(exp, want[c.off:])
				}
				if !bytes.Equal(ref, exp) {
					t.Fatalf("%s off=%d: Read returned wrong bytes", m.name, c.off)
				}
			} else if m.inFlight < 0 {
				t.Fatalf("%s off=%d: single up-front failure must be transparent: %v", m.name, c.off, refErr)
			}

			s, fs, pn, _ = setup()
			buf := bytes.Repeat([]byte{guardB}, int(c.n)+2*guard)
			dst := buf[guard : guard+int(c.n)]
			calls := 0
			var err error
			fs.ReadInto(pn, c.off, dst, func(e error) { err = e; calls++ })
			inject(s, fs)
			s.Run()
			if calls != 1 {
				t.Fatalf("%s off=%d: done fired %d times", m.name, c.off, calls)
			}
			for i := 0; i < guard; i++ {
				if buf[i] != guardB || buf[len(buf)-1-i] != guardB {
					t.Fatalf("%s off=%d: guard byte clobbered", m.name, c.off)
				}
			}
			if !errors.Is(err, refErr) || !errors.Is(refErr, err) {
				t.Fatalf("%s off=%d: ReadInto err %v, Read err %v", m.name, c.off, err, refErr)
			}
			if err == nil && !bytes.Equal(dst, ref) {
				t.Fatalf("%s off=%d: ReadInto bytes differ from Read", m.name, c.off)
			}
		}
	}
}

func TestReadIntoSecondFailure(t *testing.T) {
	for first := 0; first < raid.TotalDisks; first++ {
		second := (first + 1) % raid.TotalDisks
		s, fs, pn, _ := riFS(t, 0)
		fs.Array().FailDisk(first)
		fs.Array().FailDisk(second)
		// A whole segment's worth of file touches every data disk.
		buf := bytes.Repeat([]byte{guardB}, 150*riKB+2*guard)
		calls := 0
		var err error
		fs.ReadInto(pn, 0, buf[guard:guard+150*riKB], func(e error) { err = e; calls++ })
		s.Run()
		if calls != 1 || !errors.Is(err, raid.ErrTooManyFailures) {
			t.Fatalf("failed %d+%d: calls=%d err=%v, want one ErrTooManyFailures", first, second, calls, err)
		}
		for i := 0; i < guard; i++ {
			if buf[i] != guardB || buf[len(buf)-1-i] != guardB {
				t.Fatalf("failed %d+%d: guard byte clobbered", first, second)
			}
		}
	}
}

// A block-cache hit fills dst from the cache; the guards and the bytes
// must hold there too, and holes in a reused (dirty) dst must read as
// zeros.
func TestReadIntoCacheHitAndDirtyDst(t *testing.T) {
	s, fs, pn, want := riFS(t, 256)
	read(t, s, fs, pn, 0, 300*riKB) // warm the cache
	hits := fs.Stats.CacheHits
	for _, c := range []struct{ off, n int64 }{{4 * riKB, 8 * riKB}, {140 * riKB, 70 * riKB}} {
		buf := bytes.Repeat([]byte{guardB}, int(c.n)+2*guard)
		dst := buf[guard : guard+int(c.n)]
		var err error
		calls := 0
		fs.ReadInto(pn, c.off, dst, func(e error) { err = e; calls++ })
		s.Run()
		if calls != 1 || err != nil {
			t.Fatalf("off=%d: calls=%d err=%v", c.off, calls, err)
		}
		if !bytes.Equal(dst, want[c.off:c.off+c.n]) {
			t.Fatalf("off=%d: wrong bytes", c.off)
		}
		for i := 0; i < guard; i++ {
			if buf[i] != guardB || buf[len(buf)-1-i] != guardB {
				t.Fatalf("off=%d: guard byte clobbered", c.off)
			}
		}
	}
	if fs.Stats.CacheHits == hits {
		t.Fatal("no read was served from the block cache")
	}
}

func TestReadIntoErrors(t *testing.T) {
	s, fs, pn, _ := riFS(t, 0)
	calls := 0
	var err error
	fs.ReadInto(pn+100, 0, make([]byte, 4), func(e error) { err = e; calls++ })
	fs.ReadInto(pn, -1, make([]byte, 4), func(e error) {
		if !errors.Is(e, lfs.ErrBadExtent) {
			t.Errorf("negative offset: err = %v", e)
		}
		calls++
	})
	s.Run()
	if calls != 2 || !errors.Is(err, lfs.ErrNoFile) {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
}
