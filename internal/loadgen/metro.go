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
	"fmt"

	"repro/internal/metro"
)

// metroHome is the site every viewer is homed on.
const metroHome = 0

// buildMetro constructs the federation, places every site's share of
// the catalog, starts the serving services and admits every request
// through the metro controller.
func (sc *Scenario) buildMetro() {
	cfg := sc.cfg
	// Site 0 carries every viewer on top of its serving nodes; the
	// geometry is uniform, so every site gets the same port budget
	// (the metro adds the trunk port itself).
	mctl := metro.New(metro.Config{
		Sites:          cfg.Sites,
		Partitions:     cfg.Partitions,
		Site:           sc.siteConfig(cfg.Workstations + cfg.Servers),
		Vod:            sc.vodsiteConfig(),
		TrunkRate:      cfg.TrunkRate,
		NoSpill:        cfg.NoSpill,
		SpillThreshold: cfg.SpillThreshold,
	})
	sc.metroCtl, sc.plane = mctl, mctl.Plane()
	if cfg.Trace {
		sc.plane.EnableTrace()
	}

	// Cross-site copies can land any title on any node: size every log
	// for the whole catalog.
	for i, mb := range mctl.Members() {
		for _, ss := range sc.addServers(mb.Site, fmt.Sprintf("s%d.vod", i), cfg.Servers, cfg.Titles, 256<<10, 16) {
			mb.Ctrl.AddNode(ss)
		}
	}
	home := mctl.Member(metroHome)
	viewers := sc.attachViewers(home.Site)

	// Title t homes on site t%K with SiteReplicas consecutive holders —
	// the home site holds a slice of the catalog, the rest is remote.
	for t := 0; t < cfg.Titles; t++ {
		holders := make([]int, 0, cfg.SiteReplicas)
		for r := 0; r < cfg.SiteReplicas; r++ {
			holders = append(holders, (t+r)%cfg.Sites)
		}
		mctl.AddTitle(titleName(t), cfg.titleBytes(), cfg.FrameBytes, cfg.FrameHz, holders)
	}
	if err := mctl.Place(); err != nil {
		panic(fmt.Sprintf("loadgen: metro placement: %v", err))
	}
	mctl.Clock().Run() // drain placement I/O; CM starts after
	mctl.Start(sc.cmConfig())

	// Bytes landing on the home site are fresh local capacity: retry
	// every pending request the metro probe says some site would admit.
	mctl.OnReplica = func(int, string) { sc.retry(true) }
	mctl.OnReadmit = func(s *metro.Session) { sc.rewire(s.Tag.(*request)) }
	mctl.OnDrop = func(s *metro.Session) { sc.drop(s.Tag.(*request)) }
	sc.addRequests(viewers, home.Site.Sim)
}

// openMetro admits a request home site first, spilling cross-site on
// refusal.
func openMetro(sc *Scenario, req *request) (session, error) {
	s, err := sc.metroCtl.OpenSession(metroHome, req.title, req.viewer.Port)
	if err != nil {
		return nil, err
	}
	s.Tag = req
	return s, nil
}

// Metro exposes the federation controller for assertions.
func (sc *Scenario) Metro() *metro.Controller { return sc.metroCtl }

// startMetro schedules the whole-site failure.
func (sc *Scenario) startMetro() {
	if sc.cfg.FailSiteAt > 0 {
		idx := modulo(sc.cfg.FailSite, sc.cfg.Sites)
		sc.plane.Clock.CallAfter(sc.cfg.FailSiteAt, func() { sc.metroCtl.FailSite(idx) })
	}
}

// collectMetro fills the federation columns.
func (sc *Scenario) collectMetro(r *Result) {
	ms := sc.metroCtl.Stats
	r.Spilled = ms.Spilled
	r.TrunkRefused = ms.TrunkRefused
	r.SiteRecovered = ms.Recovered
	r.SiteDropped = ms.Dropped
	r.CatalogSyncs = ms.CatalogSyncs
	r.CatalogReconciled = ms.CatalogReconciled
	r.CrossSiteCopies = ms.CrossCopiesCompleted
	r.SiteRefused = len(sc.pending)
	r.SiteServed = make([]int64, sc.metroCtl.Sites())
	for _, req := range sc.requests {
		if req.sess != nil && !req.sess.Closed() {
			r.SiteServed[req.sess.(*metro.Session).Served]++
		}
	}
}
