package loadgen

// Live mode: the live-event flash crowd. A handful of channels go on
// the air as switch-level multicast broadcasts (core.Broadcast), a
// Zipf-popularity churn of viewers joins and leaves them with
// exponentially distributed hold times, and a background population of
// disk-backed Guaranteed VoD sessions shares the same viewer links and
// server disks. The proof the scoreboard carries: the source transmits
// each cell train once no matter how many viewers (fanout_cells_saved
// counts the copies the switch manufactured for free), a join the link
// budget would refuse degrades that channel's subtree down the tier
// ladder instead of refusing, and the unicast ablation twin — one
// circuit and one transmitted copy per viewer — admits strictly fewer
// viewers at the same budgets.
//
// All churn runs in global (barrier) context via the Scheduler facade,
// so the mode shards: -partitions 1 is bit-identical to serial and
// -partitions N is deterministic per N.

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vodsite"
)

// liveKey names the live plane's partition-sharded counters.
func liveKey(name string) telemetry.Key {
	return telemetry.Key{Node: "loadgen", Subsystem: "live", Name: name}
}

// liveChannel is one on-air channel plus its encoder.
type liveChannel struct {
	b   *core.Broadcast
	src *source
}

// liveJoinPlan is one pre-sampled churn event: viewer v joins channel
// ch at time at and holds for hold. The whole schedule is drawn from
// the seed at build time, so runtime ordering cannot perturb the
// sample sequence.
type liveJoinPlan struct {
	at, hold sim.Duration
	ch, v    int
}

// buildLive constructs the site, puts every channel on the air, admits
// the background VoD sessions, and pre-samples the churn schedule.
// Joins are scheduled when Run starts.
func (sc *Scenario) buildLive() {
	cfg := sc.cfg
	n := cfg.Workstations
	sc.attachSite(n + cfg.Channels + cfg.Servers)
	// Sources pay for their uplink: the multicast tree charges each
	// camera's once per channel, the unicast ablation once per viewer —
	// the admission asymmetry the scoreboard exists to show.
	sc.site.Signalling.EnableUplinkAdmission()
	viewers := sc.attachViewers(sc.site)
	sc.liveViewers = viewers

	// Background VoD: unicast disk-backed Guaranteed sessions on the
	// same viewer links — the mixed live+stored load the paper's site
	// carries. Their underruns must stay zero no matter what the live
	// churn does to the shared budgets.
	if cfg.VodStreams > 0 {
		titles := 2 * cfg.Servers
		sc.addServers(sc.site, "vod", cfg.Servers, 2, 64<<10, 16)
		sc.preloadTitles(titles)
		for v := 0; v < cfg.VodStreams; v++ {
			t := v % titles
			sc.serveTitle(sc.Servers[t%cfg.Servers], t, []*core.Endpoint{viewers[v%n]}, v)
		}
	}

	// One camera per channel; every channel goes on the air before any
	// viewer exists (a fresh tree forwards nowhere).
	period := sim.Second / sim.Duration(cfg.FrameHz)
	sc.channels = make([]*liveChannel, cfg.Channels)
	for c := range sc.channels {
		cam := sc.site.Attach(fmt.Sprintf("cam%d", c))
		b, err := sc.site.OpenBroadcast(core.BroadcastSpec{
			InPort:     cam.Port,
			PeakRate:   cfg.PeakRate,
			Title:      fmt.Sprintf("ch%d", c),
			FrameBytes: cfg.FrameBytes,
			FrameHz:    cfg.FrameHz,
			Unicast:    cfg.Unicast,
		})
		if err != nil {
			panic(fmt.Sprintf("loadgen: channel ch%d refused at open: %v", c, err))
		}
		src := sc.newSource(cam.Sim, cam.ToSwitch, period)
		reg, p := sc.plane.Metrics, cam.Sim.Partition()
		src.cells, src.saved = reg.Counter(p, liveKey("source_cells")), reg.Counter(p, liveKey("fanout_saved"))
		if !cfg.Unicast {
			src.vcis = []atm.VCI{b.VCI()}
			// The tree's VCI is fixed for the channel's lifetime: every
			// viewer endpoint can carry it, so the sinks register once up
			// front and branches route cells to them as joins come and go.
			for _, vp := range viewers {
				vp.Demux.Register(b.VCI(), &sink{sim: vp.Sim, tl: sc.trafficFor(vp.Sim), period: period})
			}
		}
		sc.channels[c] = &liveChannel{b: b, src: src}
	}

	// The churn schedule: Zipf channel popularity, arrivals packed into
	// the front half of the run (the flash crowd), exponential holds.
	// Everything is sampled here, in one deterministic pass.
	rng := rand.New(rand.NewSource(cfg.Seed))
	z := vodsite.NewZipf(cfg.Channels, cfg.ZipfS)
	window := cfg.Duration / 2
	if window <= 0 {
		window = 1
	}
	minHold := 4 * period
	for k := 0; k < n*cfg.StreamsPerWS; k++ {
		hold := sim.Duration(float64(cfg.HoldMean) * rng.ExpFloat64())
		if hold < minHold {
			hold = minHold
		}
		sc.livePlan = append(sc.livePlan, liveJoinPlan{
			at:   cfg.Duration/20 + sim.Duration(rng.Int63n(int64(window))),
			hold: hold,
			ch:   z.Sample(rng.Float64()),
			v:    k % n,
		})
	}
}

// liveJoin executes one planned join in global context: admit the
// viewer (the core layer runs the subtree ladder and counts
// refusals), wire the ablation's per-viewer circuit, and schedule the
// leave. Refused joins are final — a flash-crowd viewer who cannot get
// the channel goes away.
func (sc *Scenario) liveJoin(p liveJoinPlan) {
	lc := sc.channels[p.ch]
	ep := sc.liveViewers[p.v]
	j, err := lc.b.Join(ep.Port)
	if err != nil {
		return
	}
	if sc.cfg.Unicast {
		ep.Demux.Register(j.VCI(), &sink{sim: ep.Sim, tl: sc.trafficFor(ep.Sim), period: lc.src.period})
		lc.src.vcis = append(lc.src.vcis, j.VCI())
	} else {
		lc.src.viewers = lc.b.Viewers()
	}
	vci := j.VCI()
	sc.plane.Clock.CallAfter(p.hold, func() { sc.liveLeave(lc, ep, j, vci) })
}

// liveLeave executes one viewer's departure: the broadcast prunes the
// branch (and climbs the subtree back up) and the ablation's circuit
// and sink go with the viewer.
func (sc *Scenario) liveLeave(lc *liveChannel, ep *core.Endpoint, j *core.Join, vci atm.VCI) {
	if err := j.Leave(); err != nil {
		panic(fmt.Sprintf("loadgen: live leave: %v", err))
	}
	if sc.cfg.Unicast {
		ep.Demux.Unregister(vci)
		lc.src.vcis = slices.DeleteFunc(lc.src.vcis, func(v atm.VCI) bool { return v == vci })
	} else {
		lc.src.viewers = lc.b.Viewers()
	}
}

// startLive starts the encoders and schedules the churn. Called from
// Run.
func (sc *Scenario) startLive() {
	period := sim.Second / sim.Duration(sc.cfg.FrameHz)
	for c, lc := range sc.channels {
		lc.src.start(sim.Duration(int64(c)*7919) % period)
	}
	for _, p := range sc.livePlan {
		p := p
		sc.plane.Clock.CallAfter(p.at, func() { sc.liveJoin(p) })
	}
}

// collectLive fills the live-broadcast columns.
func (sc *Scenario) collectLive(r *Result) {
	lv := sc.site.LiveStats
	r.Broadcasts = int(lv.Broadcasts)
	r.LiveJoins = lv.Joins
	r.LiveLeaves = lv.Leaves
	r.LiveJoinRefused = lv.JoinRefused
	r.SubtreeDegraded = lv.SubtreeDegraded
	r.SubtreeRestored = lv.SubtreeRestored
	r.LiveSourceCells = sc.plane.Metrics.CounterValue(liveKey("source_cells"))
	r.FanoutCellsSaved = sc.plane.Metrics.CounterValue(liveKey("fanout_saved"))
	if r.LiveSourceCells > 0 {
		r.FanoutRatio = float64(r.LiveSourceCells+r.FanoutCellsSaved) / float64(r.LiveSourceCells)
	}
}
