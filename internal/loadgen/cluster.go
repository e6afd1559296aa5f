package loadgen

// Cluster mode: the load generator drives a whole multi-server VoD
// site through the vodsite controller. Viewers issue Zipf-distributed
// title requests; each request is one unicast circuit admitted on
// whichever replica's link∧disk budgets have room. Refused requests
// wait and retry when reactive replication lands a new replica; a
// scheduled node failure exercises the failover path mid-run.

import (
	"fmt"

	"repro/internal/vodsite"
)

// buildCluster constructs the site, places the catalog, starts the
// serving services and admits every request through the controller.
func (sc *Scenario) buildCluster() {
	cfg := sc.cfg
	sc.attachSite(cfg.Workstations + cfg.Servers)
	viewers := sc.attachViewers(sc.site)

	sc.ctrl = vodsite.New(sc.site, sc.vodsiteConfig())
	// Any node may come to hold any title through replication: size every
	// log for the whole catalog.
	for _, ss := range sc.addServers(sc.site, "vod", cfg.Servers, cfg.Titles, 256<<10, 16) {
		sc.ctrl.AddNode(ss)
	}
	for t := 0; t < cfg.Titles; t++ {
		sc.ctrl.AddTitle(titleName(t), cfg.titleBytes(), cfg.FrameBytes, cfg.FrameHz)
	}
	if err := sc.ctrl.Place(); err != nil {
		panic(fmt.Sprintf("loadgen: cluster placement: %v", err))
	}
	sc.site.Clock.Run() // drain placement I/O; CM starts after
	sc.ctrl.Start(sc.cmConfig())

	// A new replica is fresh capacity: retry every pending request.
	sc.ctrl.OnReplica = func(*vodsite.Title, *vodsite.Node) { sc.retry(false) }
	sc.ctrl.OnReadmit = func(st *vodsite.Stream) { sc.rewire(st.Tag.(*request)) }
	sc.ctrl.OnDrop = func(st *vodsite.Stream) { sc.drop(st.Tag.(*request)) }
	sc.addRequests(viewers, sc.site.Sim)
}

// vodsiteConfig passes the site-controller options through.
func (sc *Scenario) vodsiteConfig() vodsite.Config {
	return vodsite.Config{
		PeakRate:            sc.cfg.PeakRate,
		ZipfS:               sc.cfg.ZipfS,
		BaseReplicas:        sc.cfg.BaseReplicas,
		RefusalThreshold:    sc.cfg.RefusalThreshold,
		MaxReplicas:         sc.cfg.MaxReplicas,
		ReplicationDisabled: sc.cfg.ReplicationDisabled,
	}
}

// openCluster admits a request on whichever replica has room.
func openCluster(sc *Scenario, req *request) (session, error) {
	st, err := sc.ctrl.Admit(req.title, req.viewer.Port)
	if err != nil {
		return nil, err
	}
	st.Tag = req
	return siteStream{st}, nil
}

// Controller exposes the site controller for assertions.
func (sc *Scenario) Controller() *vodsite.Controller { return sc.ctrl }

// startCluster schedules the cache retry wave and the node failure.
func (sc *Scenario) startCluster() {
	if sc.cfg.CacheMB > 0 {
		// The build-time admission wave ran before any scheduler round
		// had fed the RAM tier, so no request could ride a wake. Once
		// leaders are streaming, a refused request becomes admittable the
		// moment a leader's wake for its title is resident on some
		// replica: retry every round, offset half a round past the
		// boundary so the leaders' windows land first. The probe
		// pre-filters the retries, so a tick over a still-cold cache
		// doesn't spin the refusal counters every round.
		var tick func()
		tick = func() {
			sc.retry(true)
			sc.site.Clock.CallAfter(sc.cfg.Round, tick)
		}
		sc.site.Clock.CallAfter(sc.cfg.Round+sc.cfg.Round/2, tick)
	}
	if sc.cfg.FailNodeAt > 0 {
		nodes := sc.ctrl.Nodes()
		node := nodes[modulo(sc.cfg.FailNode, len(nodes))]
		sc.site.Clock.CallAfter(sc.cfg.FailNodeAt, func() { sc.ctrl.FailNode(node) })
	}
}

// collectCluster fills the multi-server site columns.
func (sc *Scenario) collectCluster(r *Result) {
	st := sc.ctrl.Stats
	r.SiteRefused = len(sc.pending)
	r.ReplicasTriggered, r.ReplicasCompleted = st.ReplicasTriggered, st.ReplicasCompleted
	r.FailoverRecovered, r.FailoverDropped = st.FailoverRecovered, st.FailoverDropped
	for _, nd := range sc.ctrl.Nodes() {
		r.NodeAdmissions = append(r.NodeAdmissions, nd.Admissions)
	}
}
