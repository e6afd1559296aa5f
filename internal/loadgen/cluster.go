package loadgen

// Cluster mode: the load generator drives a whole multi-server VoD
// site through the vodsite controller. Viewers issue Zipf-distributed
// title requests; each request is one unicast circuit admitted on
// whichever replica's link∧disk budgets have room. Refused requests
// wait and retry when reactive replication lands a new replica; a
// scheduled node failure exercises the failover path mid-run.

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fileserver"
	"repro/internal/sim"
	"repro/internal/vodsite"
)

// fastDiskParams is the FastDisks geometry: flash-era mechanics
// (microsecond repositioning, 500 MB/s media rate). With the 1994
// drive, AvgPosition ≈ 12.6 ms caps a node at ~50 streams/round; this
// lifts the ceiling three orders of magnitude for 100k-session runs.
func fastDiskParams() disk.Params {
	return disk.Params{
		SeekMin: 20 * sim.Microsecond,
		SeekMax: 50 * sim.Microsecond,
		RotHalf: 25 * sim.Microsecond,
		Rate:    500_000_000,
	}
}

// clusterReq is one viewer's request for one title: the measuring sink,
// the frame source (rewired to whichever node serves the stream), and
// the site stream once admitted.
type clusterReq struct {
	sc     *Scenario
	viewer *core.Endpoint
	title  string
	phase  sim.Duration
	src    *source
	snk    *sink
	st     *vodsite.Stream // nil while refused/pending
	vci    atm.VCI         // current demux registration (0 when down)
}

// buildCluster constructs the site, places the catalog, starts the
// serving services and admits every request through the controller.
func (sc *Scenario) buildCluster() {
	cfg := sc.cfg
	n, m, k := cfg.Workstations, cfg.StreamsPerWS, cfg.Servers

	siteCfg := core.DefaultSiteConfig()
	siteCfg.LinkRate = cfg.LinkRate
	siteCfg.CellAccurate = cfg.CellAccurate
	siteCfg.Ports = n + k
	siteCfg.Partitions = cfg.Partitions
	if cfg.FastDisks {
		p := fastDiskParams()
		siteCfg.DiskParams = &p
	}
	sc.attachSite(core.NewSite(siteCfg))

	viewers := make([]*core.Endpoint, n)
	for i := 0; i < n; i++ {
		viewers[i] = sc.site.Attach(fmt.Sprintf("viewer%d", i))
	}

	framesPerRound := int64(cfg.FrameHz) * int64(cfg.Round) / int64(sim.Second)
	roundBytes := framesPerRound * int64(cfg.FrameBytes)
	titleBytes := int64(cfg.TitleRounds) * roundBytes
	segSize := int64(256 << 10)
	perTitle := (titleBytes+segSize-1)/segSize + 1
	// Any node may come to hold any title through replication: size every
	// log for the whole catalog.
	nseg := int64(cfg.Titles)*perTitle + 16

	sc.ctrl = vodsite.New(sc.site, vodsite.Config{
		PeakRate:            cfg.PeakRate,
		ZipfS:               cfg.ZipfS,
		BaseReplicas:        cfg.BaseReplicas,
		RefusalThreshold:    cfg.RefusalThreshold,
		MaxReplicas:         cfg.MaxReplicas,
		ReplicationDisabled: cfg.ReplicationDisabled,
	})
	sc.Servers = make([]*core.StorageServer, k)
	for s := range sc.Servers {
		sc.Servers[s] = sc.site.NewStorageServer(fmt.Sprintf("vod%d", s), int(segSize), nseg)
		sc.ctrl.AddNode(sc.Servers[s])
	}
	for t := 0; t < cfg.Titles; t++ {
		sc.ctrl.AddTitle(titleName(t), titleBytes, cfg.FrameBytes, cfg.FrameHz)
	}
	if err := sc.ctrl.Place(); err != nil {
		panic(fmt.Sprintf("loadgen: cluster placement: %v", err))
	}
	sc.site.Clock.Run() // drain placement I/O; CM starts after
	sc.ctrl.Start(fileserver.CMConfig{
		Round:      cfg.Round,
		CacheBytes: int64(cfg.CacheMB) << 20,
	})

	// A new replica is fresh capacity: retry every pending request.
	sc.ctrl.OnReplica = func(*vodsite.Title, *vodsite.Node) { sc.retryPending() }
	sc.ctrl.OnReadmit = func(st *vodsite.Stream) { sc.rewireReq(st) }
	sc.ctrl.OnDrop = func(st *vodsite.Stream) { sc.dropReq(st) }

	// Zipf-distributed requests, deterministically sampled.
	z := vodsite.NewZipf(cfg.Titles, cfg.ZipfS)
	rng := rand.New(rand.NewSource(cfg.Seed))
	period := sim.Second / sim.Duration(cfg.FrameHz)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			idx := i*m + j
			req := &clusterReq{
				sc:     sc,
				viewer: viewers[i],
				title:  titleName(z.Sample(rng.Float64())),
				phase:  sim.Duration(int64(idx)*7919) % period,
				snk:    &sink{sim: viewers[i].Sim, tl: sc.trafficFor(viewers[i].Sim), period: period},
			}
			// The source's partition is unknown until admission picks a
			// serving node; wireReq migrates it there.
			req.src = &source{
				sim:     sc.site.Sim,
				period:  period,
				payload: sc.synthFrame(),
				sent:    sc.trafficFor(sc.site.Sim).framesSent,
			}
			sc.requests = append(sc.requests, req)
			if !sc.admitReq(req) {
				sc.pending = append(sc.pending, req)
			}
		}
	}
}

// Controller exposes the site controller for assertions.
func (sc *Scenario) Controller() *vodsite.Controller { return sc.ctrl }

// Requests exposes the cluster requests for assertions.
func (sc *Scenario) Requests() []*clusterReq { return sc.requests }

// admitReq admits one request through the controller and wires its
// source and sink to the chosen replica; it reports false on refusal.
func (sc *Scenario) admitReq(req *clusterReq) bool {
	st, err := sc.ctrl.Admit(req.title, req.viewer.Port)
	if err != nil {
		if !errors.Is(err, vodsite.ErrNoReplica) {
			// Not an over-subscription but a scenario bug (unknown title,
			// ragged length, bad round/Hz): parking it as "refused" would
			// let a misconfiguration impersonate the replication proof.
			panic(fmt.Sprintf("loadgen: title %s not servable: %v", req.title, err))
		}
		return false
	}
	st.Tag = req
	req.st = st
	sc.wireReq(req)
	sc.admitted++
	return true
}

// wireReq points the request's source at the serving node's uplink —
// migrating it onto that node's partition — and registers its sink
// under the stream's circuit; playout starts when the replica's first
// read-ahead window is buffered.
func (sc *Scenario) wireReq(req *clusterReq) {
	st := req.st
	node := st.Node().SS.Net
	req.src.migrate(node.Sim, sc.trafficFor(node.Sim).framesSent)
	req.vci = st.VCI()
	req.src.out = node.ToSwitch
	req.src.vci = st.VCI()
	cm := st.CM()
	req.src.cm = cm
	req.viewer.Demux.Register(st.VCI(), req.snk)
	cm.OnReady(func() {
		if req.src.cm == cm {
			req.src.start(req.phase)
		}
	})
}

// retryPending re-attempts every refused request (a replica just
// landed); requests that still fit nowhere stay pending.
func (sc *Scenario) retryPending() {
	keep := sc.pending[:0]
	for _, req := range sc.pending {
		if !sc.admitReq(req) {
			keep = append(keep, req)
		}
	}
	sc.pending = keep
}

// retryCacheTick re-attempts pending requests once the RAM tier could
// be serving them: a request refused at build time (no disk room)
// becomes admittable the moment a leader's wake for its title is
// resident on some replica. The probe report pre-filters the retries —
// only requests some replica would admit right now reach the
// controller — so a tick over a still-cold cache doesn't spin the
// refusal counters every round. Runs in global (barrier) context, like
// every other control-plane verb.
func (sc *Scenario) retryCacheTick() {
	keep := sc.pending[:0]
	for _, req := range sc.pending {
		if sc.ctrl.Probe(req.title, req.viewer.Port).OK && sc.admitReq(req) {
			continue
		}
		keep = append(keep, req)
	}
	sc.pending = keep
	sc.site.Clock.CallAfter(sc.cfg.Round, sc.retryCacheTick)
}

// rewireReq moves a failover-recovered request onto its new replica:
// fresh circuit, fresh demux registration, playout resumes when the new
// node's read-ahead is buffered.
func (sc *Scenario) rewireReq(st *vodsite.Stream) {
	req := st.Tag.(*clusterReq)
	req.src.stop()
	if req.vci != 0 {
		req.viewer.Demux.Unregister(req.vci)
	}
	// The service gap is a migration, not jitter: restart the sink's
	// inter-arrival clock.
	req.snk.started = false
	sc.wireReq(req)
	sc.admitted++
}

// dropReq finishes a request whose node died with no surviving replica
// capacity: source stopped, sink unregistered; it is not retried.
func (sc *Scenario) dropReq(st *vodsite.Stream) {
	req := st.Tag.(*clusterReq)
	req.src.stop()
	req.src.cm = nil
	if req.vci != 0 {
		req.viewer.Demux.Unregister(req.vci)
		req.vci = 0
	}
}
