// Package metro federates N vodsite sites into a metro/region behind
// a hierarchical fabric. Each site keeps its own edge switch, storage
// nodes and vodsite controller; the metro adds the second tier — every
// edge switch uplinks into one core switch over a trunk
// (fabric.JoinTier) — plus the two control-plane pieces the paper's
// QoS architecture composes on top:
//
//   - an LF-style fully-replicated title catalog: every site stores
//     the whole (small, slowly changing) metadata set, so the spill
//     candidate lookup is always site-local; versioned entries
//     reconcile by anti-entropy at sync ticks while bulk title bytes
//     replicate lazily on vodsite's best-effort copy engine;
//   - spill admission: OpenSession tries the viewer's home site
//     first, and on refusal probes neighbor sites holding the title,
//     admitting remotely with the inter-site trunk as an explicit
//     extra admission leg (core.LegTrunk) in the conjunction.
//
// A spilled session is three resource holds composed end to end: a
// vodsite stream on the serving site (server uplink ∧ disk ∧ CPU,
// terminating at that site's trunk port), a VCI-rewriting route
// across the core switch, and a link-only session on the home site
// (trunk in-port → viewer downlink). Trunk bandwidth has one ledger,
// netsig: a trunk port's link capacity is the trunk's up budget
// (edge→core) and its uplink capacity the down budget (core→edge),
// both Config.TrunkRate. The serving stream's leaf on the serving
// site's trunk port charges up there, the home leg's in-port charges
// down at the home site, and closing either leg releases its charge.
//
// Sharding: the metro builds one core.Plane — the kernel (serial, or a
// sim.Cluster with Config.Partitions > 0), the shared registry and the
// shared tracer — and hosts each site wholly on one of its partitions
// (round-robin, Plane.HostSite), so every intra-site event chain stays
// partition-local and the only cross-partition hop is the core
// switch's output forwarding — whose latency (core fabric delay +
// trunk cell time + trunk propagation) is exactly the conservative
// lookahead bound.
package metro

import (
	"errors"
	"fmt"
	"iter"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fileserver"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vodsite"
)

// Config parameterises a metro federation.
type Config struct {
	// Sites is the number of member sites (required, >= 1).
	Sites int
	// Partitions shards the metro's event kernel: sites are hosted
	// whole on partitions round-robin, synchronised with a lookahead
	// equal to the inter-site (core-switch) forwarding latency. Zero
	// keeps the serial kernel; one runs the cluster machinery with
	// results bit-identical to serial.
	Partitions int
	// Site is the per-site geometry. Name is overwritten per member
	// and Partitions is ignored; Ports needs to cover the site's own
	// endpoints only — the trunk port is added on top.
	Site core.SiteConfig
	// Vod is the per-site controller config (PeakRate required).
	Vod vodsite.Config
	// TrunkRate is the per-direction trunk capacity in bits/s
	// (default 4x the site link rate — an aggregation link).
	TrunkRate int64
	// TrunkDelay is the trunk propagation delay (default 10µs).
	TrunkDelay sim.Duration
	// CoreFabricDelay is the core switch transit time per cell
	// (default: the site fabric delay).
	CoreFabricDelay sim.Duration
	// NoSpill disables remote admission — the single-site ablation:
	// a refusal at the home site is final.
	NoSpill bool
	// SpillThreshold is the spill count on one (title, home site)
	// pair that triggers lazy byte replication onto the home site
	// (default 4; negative disables).
	SpillThreshold int
}

func (cfg *Config) setDefaults() {
	if cfg.Sites < 1 {
		panic("metro: Config.Sites is required")
	}
	if cfg.Site.Ports == 0 {
		cfg.Site = core.DefaultSiteConfig()
	}
	if cfg.TrunkRate == 0 {
		cfg.TrunkRate = 4 * cfg.Site.LinkRate
	}
	if cfg.TrunkDelay == 0 {
		cfg.TrunkDelay = 10 * sim.Microsecond
	}
	if cfg.CoreFabricDelay == 0 {
		cfg.CoreFabricDelay = cfg.Site.FabricDelay
	}
	if cfg.SpillThreshold == 0 {
		cfg.SpillThreshold = 4
	}
}

// SiteStats is one member site's metro scoreboard.
type SiteStats struct {
	// Local counts sessions admitted on the home site's own capacity.
	Local int64
	// SpillOut counts this site's viewers admitted remotely.
	SpillOut int64
	// SpillIn counts sessions served here for other sites' viewers.
	SpillIn int64
	// Refused counts opens (homed here) no site could carry.
	Refused int64
	// RefusedTrunk counts refusals where a neighbor had serving room
	// but the trunk budget was the binding leg.
	RefusedTrunk int64
	// Recovered counts FailSite re-admissions served here.
	Recovered int64
	// Dropped counts sessions (homed here) lost to a site failure.
	Dropped int64
}

// Stats is the metro-wide scoreboard.
type Stats struct {
	// Spilled counts cross-site admissions.
	Spilled int64
	// TrunkRefused counts refusals attributed to the trunk leg.
	TrunkRefused int64
	// Recovered and Dropped count FailSite re-admission outcomes.
	Recovered, Dropped int64
	// CatalogSyncs counts anti-entropy rounds; CatalogReconciled the
	// entries brought up to date across all of them.
	CatalogSyncs, CatalogReconciled int64
	// CrossCopiesTriggered/Completed/Aborted count lazy cross-site
	// byte replications.
	CrossCopiesTriggered, CrossCopiesCompleted, CrossCopiesAborted int64
}

// Member is one site of the federation.
type Member struct {
	// Index is the site's metro-wide index (also its core port).
	Index int
	// Site is the hosted Pegasus site.
	Site *core.Site
	// Ctrl is the site's vodsite controller.
	Ctrl *vodsite.Controller
	// Stats is the site's metro scoreboard.
	Stats SiteStats

	m         *Controller
	trunkPort int
	failed    bool
	cat       map[string]*entry // this site's catalog replica
	pressure  map[string]int    // spill pressure per title
}

// TrunkPort is the edge-switch port the trunk occupies (always the
// first reserved port, so it is deterministic per site).
func (mb *Member) TrunkPort() int { return mb.trunkPort }

// Failed reports whether FailSite has torn the site down.
func (mb *Member) Failed() bool { return mb.failed }

// trunkCommitted reports the bandwidth netsig holds on the site's
// trunk: up (edge→core) on the trunk port's link, down (core→edge) on
// its uplink.
func (mb *Member) trunkCommitted() (up, down int64) {
	sig := mb.Site.Signalling
	return sig.Committed(mb.trunkPort), sig.CommittedUplink(mb.trunkPort)
}

// trunkLeg reports the trunk leg of a path that leaves site from's
// edge switch and enters site to's: OK when upRate more bits/s fit on
// from's up direction and downRate more on to's down direction, with
// the headroom of the tightest direction of either trunk.
func (m *Controller) trunkLeg(from, to *Member, upRate, downRate int64) core.LegReport {
	fu, fd := from.trunkCommitted()
	tu, td := to.trunkCommitted()
	c := m.cfg.TrunkRate
	return core.LegReport{
		Leg:      core.LegTrunk,
		Present:  true,
		OK:       fu+upRate <= c && td+downRate <= c,
		Headroom: float64(max(0, c-max(fu, fd, tu, td))) / float64(c),
	}
}

// Controller is the site-of-sites: it owns the shared plane (event
// kernel, registry, tracer), the core switch, the trunks, the
// replicated catalog and the spill admission policy.
type Controller struct {
	// Stats is the metro-wide scoreboard.
	Stats Stats

	// OnReplica fires when a lazy cross-site copy completes and the
	// home site starts holding the title locally — the load generator
	// retries refused requests.
	OnReplica func(home int, title string)
	// OnReadmit fires for each session FailSite moved to a surviving
	// site; the caller rewires its sink to ViewerVCI() and restarts
	// playout from CM().
	OnReadmit func(s *Session)
	// OnDrop fires for each session FailSite could not save: the
	// viewer's own site died, or no survivor had room.
	OnDrop func(s *Session)

	cfg    Config
	plane  *core.Plane
	coreSw *fabric.Switch

	members    []*Member
	titles     []string // global catalog order (AddTitle order)
	sessions   []*Session
	copies     []*crossCopy
	nextID     int64
	catVersion int64
}

// New builds a metro of cfg.Sites empty sites joined through a fresh
// core switch. Add nodes and titles, then Place and Start.
func New(cfg Config) *Controller {
	cfg.setDefaults()
	p := core.NewPlane("metro", cfg.Partitions, fabric.TierLookahead(cfg.CoreFabricDelay, cfg.TrunkRate, cfg.TrunkDelay))
	m := &Controller{cfg: cfg, plane: p}
	m.coreSw = fabric.NewSwitch(p.Sim, "metro-core", cfg.Sites, cfg.CoreFabricDelay)
	for i := 0; i < cfg.Sites; i++ {
		scfg := cfg.Site
		scfg.Name = fmt.Sprintf("site%d", i)
		scfg.Ports++ // the trunk port, on top of the site's own
		site := p.HostSite(scfg)
		tp := site.ReservePort()
		fabric.JoinTier(site.Switch, tp, m.coreSw, i, site.Sim, cfg.TrunkRate, cfg.TrunkDelay)
		site.Signalling.SetPortCapacity(tp, cfg.TrunkRate)
		site.Signalling.SetUplinkCapacity(tp, cfg.TrunkRate)
		mb := &Member{
			Index: i, Site: site,
			m: m, trunkPort: tp,
			cat:      make(map[string]*entry),
			pressure: make(map[string]int),
		}
		mb.Ctrl = vodsite.New(site, cfg.Vod)
		m.members = append(m.members, mb)
	}
	m.registerGauges()
	return m
}

// Clock is the metro's run loop (the cluster when sharded).
func (m *Controller) Clock() sim.Scheduler { return m.plane.Clock }

// Plane is the kernel, registry and tracer every member site shares.
func (m *Controller) Plane() *core.Plane { return m.plane }

// Sites is the member count.
func (m *Controller) Sites() int { return len(m.members) }

// Member returns site i.
func (m *Controller) Member(i int) *Member { return m.members[i] }

// Members returns the member sites in index order.
func (m *Controller) Members() []*Member { return m.members }

// Place runs title placement on every site and reports the first
// error.
func (m *Controller) Place() error {
	for _, mb := range m.members {
		if err := mb.Ctrl.Place(); err != nil {
			return fmt.Errorf("metro: site %d: %w", mb.Index, err)
		}
	}
	return nil
}

// Start brings up every site's round scheduler and arms the catalog
// anti-entropy tick.
func (m *Controller) Start(cfg fileserver.CMConfig) {
	for _, mb := range m.members {
		mb.Ctrl.Start(cfg)
	}
	if len(m.members) > 1 {
		m.plane.Clock.CallAfter(syncEvery, m.syncTick)
	}
}

// Session is one metro-admitted viewer session. A local session is
// just a vodsite stream; a spilled one composes the remote stream, a
// core-switch route and a home-site link-only leg.
type Session struct {
	// Home is the viewer's site; Served the site carrying the stream.
	Home, Served int
	// Title is the requested title.
	Title string
	// ViewerPort is the viewer's port on the home site's edge switch.
	ViewerPort int
	// Tag is the caller's cookie (loadgen hangs its request here).
	Tag any

	m        *Controller
	id       int64
	rate     int64
	st       *vodsite.Stream
	homeSess *core.Session // trunk→viewer leg; nil when Served == Home
	coreVCI  atm.VCI       // the serving stream's VCI at the core in-port
	closed   bool
}

// Spilled reports whether the session is served cross-site.
func (s *Session) Spilled() bool { return s.Served != s.Home }

// Node is the storage node serving the stream (nil after close).
func (s *Session) Node() *vodsite.Node {
	if s.st == nil {
		return nil
	}
	return s.st.Node()
}

// CM is the stream's disk reservation; playout pulls frames from it.
func (s *Session) CM() *fileserver.CMStream {
	if s.st == nil {
		return nil
	}
	return s.st.CM()
}

// SourceVCI is the circuit the serving node transmits on (the VCI at
// the serving site's edge switch).
func (s *Session) SourceVCI() atm.VCI {
	if s.st == nil {
		return 0
	}
	return s.st.VCI()
}

// ViewerVCI is the circuit the viewer receives on: the home-leg VCI
// for a spilled session, the stream's own for a local one.
func (s *Session) ViewerVCI() atm.VCI {
	if s.homeSess != nil {
		return s.homeSess.VCI()
	}
	return s.SourceVCI()
}

// Closed reports whether the session is down.
func (s *Session) Closed() bool { return s.closed }

// Close releases every leg: the serving stream (with its trunk up
// charge), the core route and the home leg (with its trunk down
// charge).
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.release()
}

// release frees the session's resource holds without marking it
// closed — FailSite uses it before re-admitting in place.
func (s *Session) release() {
	if s.Spilled() {
		s.m.coreSw.Unroute(s.Served, s.coreVCI)
	}
	if s.st != nil {
		if !s.st.Released() {
			s.st.Release()
		}
		s.st = nil
	}
	if s.homeSess != nil {
		if !s.homeSess.Closed() {
			_ = s.homeSess.Close()
		}
		s.homeSess = nil
	}
	s.Served = s.Home
}

// OpenSession admits a viewer on site home for title, spilling to a
// neighbor site when the home site refuses. Refusals wrap
// vodsite.ErrNoReplica (no site had serving room) or core.ErrTrunk (a
// neighbor had room but the trunk budget was the binding leg).
func (m *Controller) OpenSession(home int, title string, viewerPort int) (*Session, error) {
	hm := m.members[home]
	if hm.failed {
		return nil, fmt.Errorf("metro: site %d is down", home)
	}
	m.nextID++
	s := &Session{
		m: m, id: m.nextID, Home: home, Served: home,
		Title: title, ViewerPort: viewerPort, rate: m.cfg.Vod.PeakRate,
	}
	if err := m.admit(s); err != nil {
		return nil, err
	}
	m.sessions = append(m.sessions, s)
	return s, nil
}

// admit runs the spill admission sequence for s: home site first, then
// neighbor sites out of the home's catalog replica in rotation order.
// On success s's legs are filled in; FailSite reuses it to re-admit a
// surviving session in place.
func (m *Controller) admit(s *Session) error {
	hm := m.members[s.Home]
	var localErr error
	if hm.Ctrl.Lookup(s.Title) != nil {
		st, err := hm.Ctrl.Admit(s.Title, s.ViewerPort)
		if err == nil {
			s.st, s.homeSess, s.Served = st, nil, s.Home
			hm.Stats.Local++
			return nil
		}
		if !errors.Is(err, vodsite.ErrNoReplica) {
			return err // misconfiguration, not an over-subscription
		}
		localErr = err
	}
	if m.cfg.NoSpill {
		hm.Stats.Refused++
		if localErr != nil {
			return localErr
		}
		return fmt.Errorf("%w: metro: site %d does not hold %q (spill disabled)",
			vodsite.ErrNoReplica, s.Home, s.Title)
	}
	ent := hm.cat[s.Title]
	if ent == nil {
		hm.Stats.Refused++
		return fmt.Errorf("%w: metro: unknown title %q", vodsite.ErrNoReplica, s.Title)
	}
	// Demand the home site could not carry, whatever happens next:
	// this is the lazy-replication pressure signal.
	hm.pressure[s.Title]++
	m.maybeCopy(s.Home, s.Title)

	var lastErr error
	trunkShort := false
	for sm := range m.spillCandidates(s.Home, s.Title, ent) {
		idx := sm.Index
		// The node-local legs first, then the trunk: a neighbor with
		// serving room behind a full trunk is a trunk refusal.
		rep := sm.Ctrl.Probe(s.Title, -1)
		if !rep.OK {
			lastErr = fmt.Errorf("%w: metro: site %d refused %q on %s",
				vodsite.ErrNoReplica, idx, s.Title, rep.FirstRefusal)
			continue
		}
		if !m.trunkLeg(sm, hm, s.rate, s.rate).OK {
			trunkShort = true
			continue
		}
		// The spill trace's link leg: the serving stream leaves
		// through the trunk port.
		rep.Legs[core.LegLink] = sm.Site.Probe(core.SessionSpec{
			OutPorts: []int{sm.trunkPort}, PeakRate: s.rate,
		}).Leg(core.LegLink)
		st, err := sm.Ctrl.Admit(s.Title, sm.trunkPort)
		if err != nil {
			lastErr = err
			continue
		}
		hs, err := hm.Site.OpenSession(core.SessionSpec{
			Class:    m.cfg.Vod.Class,
			InPort:   hm.trunkPort,
			OutPorts: []int{s.ViewerPort},
			PeakRate: s.rate,
		})
		if err != nil {
			st.Release()
			lastErr = err
			break // the viewer's own downlink refused; no neighbor helps
		}
		m.coreSw.Route(idx, st.VCI(), s.Home, hs.VCI())
		s.st, s.homeSess, s.Served, s.coreVCI = st, hs, idx, st.VCI()
		hm.Stats.SpillOut++
		sm.Stats.SpillIn++
		m.Stats.Spilled++
		m.traceSpill(s, rep)
		return nil
	}
	hm.Stats.Refused++
	if trunkShort {
		hm.Stats.RefusedTrunk++
		m.Stats.TrunkRefused++
		return fmt.Errorf("%w: %q homed at site %d", core.ErrTrunk, s.Title, s.Home)
	}
	if lastErr != nil {
		return lastErr
	}
	if localErr != nil {
		return localErr
	}
	return fmt.Errorf("%w: metro: no site holds %q", vodsite.ErrNoReplica, s.Title)
}

// spillCandidates yields the sites that may serve title for a viewer
// homed at home, in the order every spill decision tries them: the
// row's holder sites in ring order after home, skipping failed sites
// and sites whose vodsite catalog lacks the title. Each candidate is
// checked as it is reached, so state changed by the caller between
// candidates is seen.
func (m *Controller) spillCandidates(home int, title string, ent *entry) iter.Seq[*Member] {
	return func(yield func(*Member) bool) {
		K := len(m.members)
		for off := 1; off < K; off++ {
			idx := (home + off) % K
			if !holdsSite(ent.Holders, idx) {
				continue
			}
			sm := m.members[idx]
			if sm.failed || sm.Ctrl.Lookup(title) == nil {
				continue
			}
			if !yield(sm) {
				return
			}
		}
	}
}

// Probe answers "would OpenSession(home, title, viewerPort) admit
// right now, and where" without holding anything: the home site's
// report when it would admit locally, otherwise the first admitting
// spill candidate's report with the viewer-downlink and trunk legs
// merged in. The second return is the serving site, -1 when every
// candidate refuses (the report then describes the last one probed).
func (m *Controller) Probe(home int, title string, viewerPort int) (core.AdmissionReport, int) {
	hm := m.members[home]
	rate := m.cfg.Vod.PeakRate
	if hm.failed {
		return core.AdmissionReport{}, -1
	}
	var last core.AdmissionReport
	if hm.Ctrl.Lookup(title) != nil {
		last = hm.Ctrl.Probe(title, viewerPort)
		if last.OK {
			return last, home
		}
	}
	if m.cfg.NoSpill {
		return last, -1
	}
	ent := hm.cat[title]
	if ent == nil {
		return last, -1
	}
	// The viewer's downlink is on the home site whichever site serves.
	link := hm.Site.Probe(core.SessionSpec{
		Class: m.cfg.Vod.Class, OutPorts: []int{viewerPort}, PeakRate: rate,
	}).Leg(core.LegLink)
	for sm := range m.spillCandidates(home, title, ent) {
		rep := sm.Ctrl.Probe(title, -1)
		rep.Legs[core.LegLink] = link
		tl := m.trunkLeg(sm, hm, rate, rate)
		rep.Legs[core.LegTrunk] = tl
		if rep.OK && (!link.OK || !tl.OK) {
			rep.OK = false
			if !link.OK {
				rep.FirstRefusal = core.LegLink
			} else {
				rep.FirstRefusal = core.LegTrunk
			}
		}
		last = rep
		if rep.OK {
			return rep, sm.Index
		}
	}
	return last, -1
}

// traceSpill records the cross-site admission with the remote probe's
// per-leg headrooms plus the trunk leg — every spilled admission
// carries a trunk-leg entry in the session trace.
func (m *Controller) traceSpill(s *Session, rep core.AdmissionReport) {
	tr := m.plane.Tracer()
	if tr == nil {
		return
	}
	rep.Legs[core.LegTrunk] = m.trunkLeg(m.members[s.Served], m.members[s.Home], 0, 0)
	var legs []telemetry.LegSample
	for _, lr := range rep.Legs {
		if lr.Present {
			legs = append(legs, telemetry.LegSample{Leg: lr.Leg.String(), OK: lr.OK, Headroom: lr.Headroom})
		}
	}
	tr.Record(tr.GlobalShard(), telemetry.Event{
		T:       m.plane.Clock.Now(),
		Event:   "spilled",
		Session: s.id,
		Node:    s.st.Node().SS.Name,
		Class:   m.cfg.Vod.Class.String(),
		RateBPS: s.rate,
		Legs:    legs,
	})
}

// FailReport summarises a whole-site failure.
type FailReport struct {
	// Site is the dead site's index.
	Site int
	// Sessions counts metro sessions touching the site at failure.
	Sessions int
	// Recovered counts sessions re-admitted on surviving sites.
	Recovered int
	// Dropped counts sessions lost: the viewer's own site died, or no
	// survivor had room.
	Dropped int
}

// FailSite kills a whole site: its catalog entries are struck from
// every survivor's view, cross-site copies touching it abort, its
// viewers' sessions drop, sessions it was serving for other sites'
// viewers are re-admitted on survivors across the trunk, and finally
// every storage node is torn down at the vodsite level. Global
// context only.
func (m *Controller) FailSite(idx int) FailReport {
	rep := FailReport{Site: idx}
	vm := m.members[idx]
	if vm.failed {
		return rep
	}
	vm.failed = true
	for _, cp := range append([]*crossCopy(nil), m.copies...) {
		if cp.home == idx || cp.from == idx {
			cp.Abort()
		}
	}
	// Strike the site from every survivor's catalog view, one version
	// for the whole event.
	m.catVersion++
	v := m.catVersion
	for _, mb := range m.members {
		if mb.failed {
			continue
		}
		for name, ent := range mb.cat {
			if holdsSite(ent.Holders, idx) {
				ne := ent.clone()
				ne.Version = v
				ne.Holders = removeSite(ne.Holders, idx)
				mb.cat[name] = ne
			}
		}
	}
	for _, s := range m.sessions {
		if s.closed || (s.Home != idx && s.Served != idx) {
			continue
		}
		rep.Sessions++
		if s.Home == idx {
			// The viewer died with its site.
			s.closed = true
			s.release()
			rep.Dropped++
			m.Stats.Dropped++
			vm.Stats.Dropped++
			if cb := m.OnDrop; cb != nil {
				cb(s)
			}
			continue
		}
		// Served here for a live viewer elsewhere: re-admit in place.
		s.release()
		if err := m.admit(s); err != nil {
			s.closed = true
			rep.Dropped++
			m.Stats.Dropped++
			m.members[s.Home].Stats.Dropped++
			if cb := m.OnDrop; cb != nil {
				cb(s)
			}
			continue
		}
		rep.Recovered++
		m.Stats.Recovered++
		m.members[s.Served].Stats.Recovered++
		if cb := m.OnReadmit; cb != nil {
			cb(s)
		}
	}
	// vodsite-level teardown: every metro stream the site carried is
	// already released, so this stops schedulers, aborts intra-site
	// copies and strips the nodes from replica sets without any
	// spurious intra-site recovery.
	for _, n := range vm.Ctrl.Nodes() {
		if !n.Failed() {
			vm.Ctrl.FailNode(n)
		}
	}
	return rep
}

// Sessions returns the metro's admitted sessions, open and closed.
func (m *Controller) Sessions() []*Session { return m.sessions }

// registerGauges wires the metro-level producers into the shared
// registry: per-site spill/refusal scoreboards and trunk commitments
// under each site's node name, catalog and core-switch gauges under
// "metro". The kernel's gauges belong to the plane.
func (m *Controller) registerGauges() {
	reg := m.plane.Metrics
	for _, mb := range m.members {
		mb := mb
		node := mb.Site.Config.Name
		g := func(name string, fn func() float64) {
			reg.Gauge(telemetry.Key{Node: node, Subsystem: "metro", Name: name}, fn)
		}
		g("served_local", func() float64 { return float64(mb.Stats.Local) })
		g("spill_out", func() float64 { return float64(mb.Stats.SpillOut) })
		g("spill_in", func() float64 { return float64(mb.Stats.SpillIn) })
		g("refused", func() float64 { return float64(mb.Stats.Refused) })
		g("refused_trunk", func() float64 { return float64(mb.Stats.RefusedTrunk) })
		g("recovered", func() float64 { return float64(mb.Stats.Recovered) })
		g("dropped", func() float64 { return float64(mb.Stats.Dropped) })
		g("trunk_up_committed_bps", func() float64 { up, _ := mb.trunkCommitted(); return float64(up) })
		g("trunk_down_committed_bps", func() float64 { _, down := mb.trunkCommitted(); return float64(down) })
	}
	mg := func(sub, name string, fn func() float64) {
		reg.Gauge(telemetry.Key{Node: "metro", Subsystem: sub, Name: name}, fn)
	}
	mg("catalog", "syncs", func() float64 { return float64(m.Stats.CatalogSyncs) })
	mg("catalog", "reconciled", func() float64 { return float64(m.Stats.CatalogReconciled) })
	mg("catalog", "cross_copies", func() float64 { return float64(m.Stats.CrossCopiesCompleted) })
	mg("admission", "spilled", func() float64 { return float64(m.Stats.Spilled) })
	mg("admission", "refused_trunk", func() float64 { return float64(m.Stats.TrunkRefused) })
	mg("fabric", "cells_switched", func() float64 { return float64(m.coreSw.Stats().Switched) })
}
