package loadgen

// Adaptive mode: the degrade-instead-of-refuse scenario. Every request
// is one unicast disk-backed stream opened as an Adaptive-class
// core.Session against a deliberately over-subscribable server set.
// When an open would be refused, the site scales the contending
// Adaptive sessions down the tier ladder — proportionally,
// floor-bounded — and admits the newcomer at the shared tier; closing
// streams mid-run (ReleaseAt/ReleaseEvery) frees budget the site uses
// to restore degraded survivors. The scoreboard's degraded/restored
// columns and the zero-underruns check are the proof the §3.3
// negotiate-down policy holds end to end: more streams than the
// Guaranteed class can carry, none of them ever starved.

import (
	"fmt"

	"repro/internal/core"
)

// buildAdaptive constructs the site, preloads titles onto the servers'
// arrays and admits every request as an Adaptive session. Unlike plain
// VoD's shared fan-out, each request is its own circuit, so disk and
// link load scale with requests — the over-subscription the policy
// exists for.
//
// CPUBound runs share this topology: each server additionally gets an
// admission-controlled protocol-processing CPU (core.NodeCPU) with a
// deliberately small throughput, every session carries the CPU leg, and
// the class stays Guaranteed unless Adaptive is also set — so the run
// proves a node refuses (or degrades) on CPU strictly before its disks
// fill, with zero EDF deadline misses among admitted streams.
func (sc *Scenario) buildAdaptive() {
	cfg := sc.cfg
	n, m := cfg.Workstations, cfg.StreamsPerWS
	sc.attachSite(n + cfg.Servers)
	viewers := sc.attachViewers(sc.site)
	// 64 KiB segments stripe into 16 KiB per-disk chunks, so a degraded
	// window really costs the disks less; see the adaptive row's frames.
	for _, ss := range sc.addServers(sc.site, "vod", cfg.Servers, m, 64<<10, 16) {
		if cfg.CPUBound {
			ss.EnableCPU(core.CPUConfig{BytesPerSec: cfg.CPUBytesPerSec, PerFrame: cpuPerFrame})
		}
	}
	titles := cfg.Servers * m
	sc.preloadTitles(titles)

	// One unicast request per (viewer, slot), spread across the catalog.
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			t := (i*m + j) % titles
			sc.serveTitle(sc.Servers[t%cfg.Servers], t, []*core.Endpoint{viewers[i]}, i*m+j)
		}
	}
}

// startAdaptive schedules the mid-run release of an Adaptive run.
func (sc *Scenario) startAdaptive() {
	if sc.cfg.Adaptive && sc.cfg.ReleaseAt > 0 && sc.cfg.ReleaseEvery > 0 {
		sc.site.Clock.CallAfter(sc.cfg.ReleaseAt, sc.releaseSome)
	}
}

// releaseSome closes every ReleaseEvery'th admitted stream — the freed
// budget flows back to degraded survivors through the site's
// restore-on-close policy.
func (sc *Scenario) releaseSome() {
	k := 0
	for _, st := range sc.streams {
		if st.sess == nil {
			continue
		}
		if k++; k%sc.cfg.ReleaseEvery == 0 {
			if err := st.Stop(); err != nil {
				panic(fmt.Sprintf("loadgen: adaptive release: %v", err))
			}
		}
	}
}

// collectAdaptive fills the QoS-session columns, and for CPUBound runs
// the CPU columns.
func (sc *Scenario) collectAdaptive(r *Result) {
	for _, st := range sc.streams {
		if st.sess == nil {
			continue
		}
		r.SessionsUp++
		if st.sess.Degraded() {
			r.SessionsDegraded++
		}
	}
	r.DegradeEvents = sc.site.QoSStats.Degraded
	r.RestoreEvents = sc.site.QoSStats.Restored
	if !sc.cfg.CPUBound {
		return
	}
	r.CPURefused = int(sc.site.QoSStats.RefusedLeg[core.LegCPU])
	for _, ss := range sc.Servers {
		if cpu := ss.CPU; cpu != nil {
			r.DeadlineMisses += cpu.Stats.DeadlineMisses
		}
		// Worst-node load comes off the probe surface — the same
		// per-leg headrooms replica selection ranks by — rather than
		// per-package capacity getters.
		rep := sc.site.Probe(core.SessionSpec{CM: ss.CM, CPU: ss.CPU})
		if lr := rep.Leg(core.LegCPU); lr.Present {
			if f := 1 - lr.Headroom; f > r.CPUReserved {
				r.CPUReserved = f
			}
		}
		if lr := rep.Leg(core.LegDisk); lr.Present {
			if f := 1 - lr.Headroom; f > r.DiskCommitted {
				r.DiskCommitted = f
			}
		}
	}
}
