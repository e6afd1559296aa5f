package loadgen

// Metro mode: the load generator drives a federation of vodsite sites
// through the internal/metro controller. Every viewer is homed on
// site 0 — the flash-crowd geometry — and issues Zipf-distributed
// title requests; titles are spread over the sites SiteReplicas wide,
// so requests the over-subscribed home site cannot carry spill across
// the core switch to neighbor sites, with the inter-site trunk as an
// explicit admission leg. Refused requests wait and retry when a
// cross-site copy lands the title's bytes on the home site; a
// scheduled whole-site failure exercises FailSite mid-run.

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/metro"
	"repro/internal/sim"
	"repro/internal/vodsite"
)

// metroReq is one home-site viewer's request for one title: the
// measuring sink on the viewer's port, the frame source (migrated to
// whichever site's node serves the stream), and the metro session once
// admitted.
type metroReq struct {
	sc     *Scenario
	home   int
	viewer *core.Endpoint
	title  string
	phase  sim.Duration
	src    *source
	snk    *sink
	sess   *metro.Session // nil while refused/pending
	vci    atm.VCI        // current demux registration (0 when down)
}

// buildMetro constructs the federation, places every site's share of
// the catalog, starts the serving services and admits every request
// through the metro controller.
func (sc *Scenario) buildMetro() {
	cfg := sc.cfg
	n, m, k := cfg.Workstations, cfg.StreamsPerWS, cfg.Sites

	siteCfg := core.DefaultSiteConfig()
	siteCfg.LinkRate = cfg.LinkRate
	siteCfg.CellAccurate = cfg.CellAccurate
	// Site 0 carries every viewer on top of its serving nodes; the
	// geometry is uniform, so every site gets the same port budget
	// (the metro adds the trunk port itself).
	siteCfg.Ports = n + cfg.Servers
	if cfg.FastDisks {
		p := fastDiskParams()
		siteCfg.DiskParams = &p
	}

	mctl := metro.New(metro.Config{
		Sites:      k,
		Partitions: cfg.Partitions,
		Site:       siteCfg,
		Vod: vodsite.Config{
			PeakRate:            cfg.PeakRate,
			ZipfS:               cfg.ZipfS,
			BaseReplicas:        cfg.BaseReplicas,
			RefusalThreshold:    cfg.RefusalThreshold,
			MaxReplicas:         cfg.MaxReplicas,
			ReplicationDisabled: cfg.ReplicationDisabled,
		},
		TrunkRate:      cfg.TrunkRate,
		NoSpill:        cfg.NoSpill,
		SpillThreshold: cfg.SpillThreshold,
	})
	sc.metroCtl = mctl
	if cfg.Trace {
		mctl.EnableTrace()
	}

	framesPerRound := int64(cfg.FrameHz) * int64(cfg.Round) / int64(sim.Second)
	roundBytes := framesPerRound * int64(cfg.FrameBytes)
	titleBytes := int64(cfg.TitleRounds) * roundBytes
	segSize := int64(256 << 10)
	perTitle := (titleBytes+segSize-1)/segSize + 1
	// Cross-site copies can land any title on any node: size every log
	// for the whole catalog.
	nseg := int64(cfg.Titles)*perTitle + 16

	for i, mb := range mctl.Members() {
		for s := 0; s < cfg.Servers; s++ {
			ss := mb.Site.NewStorageServer(fmt.Sprintf("s%d.vod%d", i, s), int(segSize), nseg)
			mb.Ctrl.AddNode(ss)
			sc.Servers = append(sc.Servers, ss)
		}
	}
	home := mctl.Member(0)
	viewers := make([]*core.Endpoint, n)
	for i := 0; i < n; i++ {
		viewers[i] = home.Site.Attach(fmt.Sprintf("viewer%d", i))
	}

	// Title t homes on site t%K with SiteReplicas consecutive holders —
	// the home site holds a slice of the catalog, the rest is remote.
	for t := 0; t < cfg.Titles; t++ {
		holders := make([]int, 0, cfg.SiteReplicas)
		for r := 0; r < cfg.SiteReplicas; r++ {
			holders = append(holders, (t+r)%k)
		}
		mctl.AddTitle(titleName(t), titleBytes, cfg.FrameBytes, cfg.FrameHz, holders)
	}
	if err := mctl.Place(); err != nil {
		panic(fmt.Sprintf("loadgen: metro placement: %v", err))
	}
	mctl.Clock().Run() // drain placement I/O; CM starts after
	mctl.Start(fileserver.CMConfig{
		Round:      cfg.Round,
		CacheBytes: int64(cfg.CacheMB) << 20,
	})

	// Bytes landing on the home site are fresh local capacity: retry
	// every pending request.
	mctl.OnReplica = func(int, string) { sc.retryMetroPending() }
	mctl.OnReadmit = func(s *metro.Session) { sc.rewireMetroReq(s) }
	mctl.OnDrop = func(s *metro.Session) { sc.dropMetroReq(s) }

	// Zipf-distributed requests, deterministically sampled, all homed
	// on site 0.
	z := vodsite.NewZipf(cfg.Titles, cfg.ZipfS)
	rng := rand.New(rand.NewSource(cfg.Seed))
	period := sim.Second / sim.Duration(cfg.FrameHz)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			idx := i*m + j
			req := &metroReq{
				sc:     sc,
				home:   0,
				viewer: viewers[i],
				title:  titleName(z.Sample(rng.Float64())),
				phase:  sim.Duration(int64(idx)*7919) % period,
				snk:    &sink{sim: viewers[i].Sim, tl: sc.trafficFor(viewers[i].Sim), period: period},
			}
			// The source's site (and partition) is unknown until
			// admission picks a serving node; wireMetroReq migrates it.
			req.src = &source{
				sim:     home.Site.Sim,
				period:  period,
				payload: sc.synthFrame(),
				sent:    sc.trafficFor(home.Site.Sim).framesSent,
			}
			sc.mreqs = append(sc.mreqs, req)
			if !sc.admitMetroReq(req) {
				sc.mpending = append(sc.mpending, req)
			}
		}
	}
}

// Metro exposes the federation controller for assertions.
func (sc *Scenario) Metro() *metro.Controller { return sc.metroCtl }

// admitMetroReq admits one request through the metro controller —
// home site first, spilling cross-site on refusal — and wires its
// source and sink; it reports false when no site could carry it.
func (sc *Scenario) admitMetroReq(req *metroReq) bool {
	s, err := sc.metroCtl.OpenSession(req.home, req.title, req.viewer.Port)
	if err != nil {
		if !errors.Is(err, vodsite.ErrNoReplica) && !errors.Is(err, core.ErrTrunk) {
			// Not an over-subscription but a scenario bug: parking it as
			// "refused" would let a misconfiguration impersonate the
			// spill proof.
			panic(fmt.Sprintf("loadgen: metro title %s not servable: %v", req.title, err))
		}
		return false
	}
	s.Tag = req
	req.sess = s
	sc.wireMetroReq(req)
	sc.admitted++
	return true
}

// wireMetroReq points the request's source at the serving node's
// uplink — migrating it onto that node's site and partition — and
// registers its sink under the viewer-side circuit (the home-leg VCI
// for a spilled session); playout starts when the serving replica's
// first read-ahead window is buffered.
func (sc *Scenario) wireMetroReq(req *metroReq) {
	s := req.sess
	node := s.Node().SS.Net
	req.src.migrate(node.Sim, sc.trafficFor(node.Sim).framesSent)
	req.src.out = node.ToSwitch
	req.src.vci = s.SourceVCI()
	cm := s.CM()
	req.src.cm = cm
	req.vci = s.ViewerVCI()
	req.viewer.Demux.Register(req.vci, req.snk)
	cm.OnReady(func() {
		if req.src.cm == cm {
			req.src.start(req.phase)
		}
	})
}

// retryMetroPending re-attempts refused requests after a cross-site
// copy lands fresh home-site capacity. The metro probe pre-filters —
// only requests some site would admit right now reach OpenSession, so
// a retry wave over a still-full federation doesn't spin the refusal
// counters.
func (sc *Scenario) retryMetroPending() {
	keep := sc.mpending[:0]
	for _, req := range sc.mpending {
		if rep, _ := sc.metroCtl.Probe(req.home, req.title, req.viewer.Port); rep.OK && sc.admitMetroReq(req) {
			continue
		}
		keep = append(keep, req)
	}
	sc.mpending = keep
}

// rewireMetroReq moves a FailSite-recovered request onto its new
// serving site: fresh circuits end to end, fresh demux registration,
// playout resumes when the new node's read-ahead is buffered.
func (sc *Scenario) rewireMetroReq(s *metro.Session) {
	req := s.Tag.(*metroReq)
	req.src.stop()
	if req.vci != 0 {
		req.viewer.Demux.Unregister(req.vci)
	}
	// The service gap is a migration, not jitter: restart the sink's
	// inter-arrival clock.
	req.snk.started = false
	sc.wireMetroReq(req)
	sc.admitted++
}

// dropMetroReq finishes a request whose session died with its site and
// found no surviving capacity: source stopped, sink unregistered; it
// is not retried.
func (sc *Scenario) dropMetroReq(s *metro.Session) {
	req := s.Tag.(*metroReq)
	req.src.stop()
	req.src.cm = nil
	if req.vci != 0 {
		req.viewer.Demux.Unregister(req.vci)
		req.vci = 0
	}
}
