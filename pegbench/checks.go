package main

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/loadgen"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/vodsite"
)

// scoreboard is a run's simulated result: the Result JSON with the
// host-time fields zeroed. For a given seed and partition count it must
// repeat byte for byte, traced or not.
func scoreboard(r loadgen.Result) ([]byte, error) {
	r.WallSeconds, r.EventsPerSec, r.CellsPerSec = 0, 0, 0
	return r.JSON()
}

// diskBytesRead sums what every server's disk heads read, whatever the
// scenario kind (the Result only reports it for storage-backed modes).
func diskBytesRead(sc *loadgen.Scenario) int64 {
	var n int64
	for _, ss := range sc.Servers {
		arr := ss.Server.FS().Array()
		for i := 0; i < raid.TotalDisks; i++ {
			n += arr.Disk(i).Stats.BytesRead
		}
	}
	return n
}

// titleByte is the placement pattern vodsite writes: byte off of the
// title ranked rank.
func titleByte(rank int, off int64) byte {
	return byte((off*131 + int64(rank)*37) % 251)
}

const readBackBytes = 4 << 10

// readBack reads sample windows of every title replica on every live
// node back through the public fileserver.Server.Read and compares them
// with the placement pattern. It runs after the scoreboard is taken;
// the reads advance the simulation a little further. A cross-site copy
// carries its source site's bytes, whose local rank may differ, so a
// window must match the pattern of one of the ranks the title has at
// some site.
func readBack(sc *loadgen.Scenario) error {
	var ctrls []*vodsite.Controller
	var clock sim.Scheduler
	if m := sc.Metro(); m != nil {
		clock = m.Clock()
		for _, mb := range m.Members() {
			if !mb.Failed() {
				ctrls = append(ctrls, mb.Ctrl)
			}
		}
	} else if c := sc.Controller(); c != nil {
		clock = sc.Site().Clock
		ctrls = append(ctrls, c)
	}
	if len(ctrls) == 0 {
		return nil
	}
	ranks := map[string][]int{}
	for _, c := range ctrls {
		for _, t := range c.Titles() {
			ranks[t.Name] = append(ranks[t.Name], t.Rank)
		}
	}
	type probe struct {
		title string
		node  int
		off   int64
		got   []byte
		err   error
		done  bool
	}
	var mu sync.Mutex // read callbacks may run on partition goroutines
	var probes []*probe
	for _, c := range ctrls {
		for _, t := range c.Titles() {
			for _, n := range t.Replicas() {
				if n.Failed() {
					continue
				}
				for _, off := range []int64{0, (t.Bytes / 2) &^ 4095, t.Bytes - readBackBytes} {
					p := &probe{title: t.Name, node: n.ID, off: off}
					probes = append(probes, p)
					n.SS.Server.Read(t.Name, off, readBackBytes, func(b []byte, err error) {
						mu.Lock()
						defer mu.Unlock()
						p.got, p.err, p.done = append([]byte(nil), b...), err, true
					})
				}
			}
		}
	}
	if len(probes) == 0 {
		return fmt.Errorf("read-back: no title replica to read")
	}
	pending := func() int {
		mu.Lock()
		defer mu.Unlock()
		k := 0
		for _, p := range probes {
			if !p.done {
				k++
			}
		}
		return k
	}
	for i := 0; i < 100 && pending() > 0; i++ {
		clock.RunFor(50 * sim.Millisecond)
	}
	if k := pending(); k > 0 {
		return fmt.Errorf("read-back: %d of %d reads never completed", k, len(probes))
	}
	for _, p := range probes {
		if p.err != nil {
			return fmt.Errorf("read-back %s@%d on node %d: %w", p.title, p.off, p.node, p.err)
		}
		if !matchesAnyRank(p.got, p.off, ranks[p.title]) {
			return fmt.Errorf("read-back %s@%d on node %d: bytes differ from the placement pattern", p.title, p.off, p.node)
		}
	}
	return nil
}

func matchesAnyRank(got []byte, off int64, ranks []int) bool {
	if len(got) != readBackBytes {
		return false
	}
	want := make([]byte, len(got))
	for _, rank := range ranks {
		for i := range want {
			want[i] = titleByte(rank, off+int64(i))
		}
		if bytes.Equal(got, want) {
			return true
		}
	}
	return false
}
