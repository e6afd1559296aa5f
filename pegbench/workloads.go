package main

import (
	"fmt"

	"repro/internal/loadgen"
	"repro/internal/sim"
)

// workload is one named scenario: the loadgen configuration it runs
// and the guards that prove it still exercises the layers it was
// chosen for. A failed guard makes the run invalid, not slow. The
// configuration fixes the simulated run length: host time per simulated
// second is not steady in run length (replica copies land and the heap
// grows as a run goes on), so comparisons are only valid at the same
// length.
type workload struct {
	name string
	cfg  loadgen.Config
	// unicast workloads deliver each frame at most once, so delivered
	// frames may never exceed sent frames.
	unicast bool
	// guard checks the untraced scoreboard (and harness-side counts).
	guard func(r *rep) error
	// traceGuard checks the traced run's per-layer CPU shares.
	traceGuard func(a *attribution) error
}

// workloads are the benchmark's scenarios; see README.md for why each
// exists and which layer metrics it is meant to move.
var workloads = []workload{
	{
		name: "disk-stream",
		cfg: loadgen.Config{
			Cluster: true, FastDisks: true,
			Servers: 16, Workstations: 800, StreamsPerWS: 8,
			// The reference run's length: short enough that no reactive
			// replica lands, so the storage stack, not the retry wave,
			// dominates Run.
			Duration: 2 * sim.Second,
		},
		unicast: true,
		traceGuard: func(a *attribution) error {
			if share := a.share("disk") + a.share("raid") + a.share("lfs"); share < 0.25 {
				return fmt.Errorf("disk+raid+lfs hold %.1f%% of traced host time, want >= 25%%", 100*share)
			}
			return nil
		},
	},
	{
		name: "cache-zipf",
		cfg: loadgen.Config{
			Cluster: true,
			Servers: 16, Workstations: 800, StreamsPerWS: 8,
			CacheMB: 64, Titles: 32, ReplicationDisabled: true,
			// The disks read each title's first pass only; the run must be
			// long enough for the wakes to serve most of the bytes.
			Duration: 8 * sim.Second,
		},
		unicast: true,
		guard: func(r *rep) error {
			if c := r.res.CacheBytesServed; c < 5*r.diskRead {
				return fmt.Errorf("cache served %d bytes vs %d read off the disks, want >= 5x", c, r.diskRead)
			}
			return nil
		},
	},
	{
		name: "live-fanout",
		cfg: loadgen.Config{
			Live:         true,
			Workstations: 1000, StreamsPerWS: 100,
			Channels: 64, VodStreams: -1,
			Duration: 4 * sim.Second,
		},
		guard: func(r *rep) error {
			if r.diskRead != 0 {
				return fmt.Errorf("live run read %d bytes off disks, want 0", r.diskRead)
			}
			return nil
		},
	},
	{
		name: "metro-spill",
		cfg: loadgen.Config{
			Metro: true, FastDisks: true,
			Sites: 3, Servers: 4, Workstations: 300, StreamsPerWS: 4,
			Partitions: 2,
			FailSiteAt: 2 * sim.Second, FailSite: 1,
			Duration: 4 * sim.Second,
		},
		unicast: true,
		guard: func(r *rep) error {
			if r.res.Spilled == 0 || r.res.SiteRecovered == 0 {
				return fmt.Errorf("spilled=%d site_recovered=%d, want both > 0", r.res.Spilled, r.res.SiteRecovered)
			}
			return nil
		},
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// operations is the number of session requests (or live joins) one
// repetition issues.
func (w *workload) operations() int {
	return w.cfg.Workstations * w.cfg.StreamsPerWS
}
