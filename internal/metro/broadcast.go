package metro

// Live broadcast across the federation: one camera at a home site,
// viewers at any member site, and the two-tier fabric doing all the
// fan-out. The channel's home tree carries at most one trunk branch no
// matter how many sites subscribe — the core switch holds a multicast
// entry replicating that single copy onto each subscribed site's down
// trunk, and each subscribed site runs its own subtree (a
// core.Broadcast fed from its trunk ingress port) for its local
// viewers. So a cell train crosses the home uplink once, the metro
// core once per subscribed site, and each site's edge fabric once per
// local branch: exactly the paper's one-event-per-train-per-switch
// cost model, federated.
//
// Budgets: the home trunk's up direction is committed once per channel
// (at the home tier's rate); each subscribed site's down direction is
// committed at that site's subtree tier. A subtree that degrades under
// local join pressure recommits its down leg at the lower tier — the
// model is a layered stream whose enhancement cells the trunk ingress
// drops, so a degraded site's links (trunk included) only carry the
// degraded rate. A join refused because a trunk direction lacks
// headroom surfaces core.ErrTrunk, the same leg taxonomy as spill
// admission.

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// ErrChannelClosed reports a verb on a closed metro channel.
var ErrChannelClosed = errors.New("metro: live channel is closed")

// subtree is one member site's share of a live channel.
type subtree struct {
	b        *core.Broadcast
	downRate int64 // trunk down-direction commitment (0 at the home site)
}

// LiveChannel is one live broadcast spanning the federation.
type LiveChannel struct {
	m    *Controller
	home int
	spec core.BroadcastSpec

	trees  map[int]*subtree // per-site subtree, home included
	upRate int64            // home trunk up commitment (0 until a remote site subscribes)
	closed bool
}

// LiveJoin is one viewer's handle on a metro channel.
type LiveJoin struct {
	ch   *LiveChannel
	site int
	j    *core.Join
	done bool
}

// Site reports the member site the viewer joined at.
func (lj *LiveJoin) Site() int { return lj.site }

// OpenBroadcast puts a live channel on the air at its home site. The
// source's uplink and CPU contract are admitted there; remote sites
// cost nothing until their first viewer joins.
func (m *Controller) OpenBroadcast(home int, spec core.BroadcastSpec) (*LiveChannel, error) {
	mb := m.members[home]
	if mb.failed {
		return nil, fmt.Errorf("metro: site %d has failed", home)
	}
	b, err := mb.Site.OpenBroadcast(spec)
	if err != nil {
		return nil, err
	}
	ch := &LiveChannel{m: m, home: home, spec: spec, trees: map[int]*subtree{home: {b: b}}}
	return ch, nil
}

// Home reports the channel's home site.
func (ch *LiveChannel) Home() int { return ch.home }

// Viewers reports the channel's total viewer count across all sites.
func (ch *LiveChannel) Viewers() int {
	n := 0
	for _, t := range ch.trees {
		n += t.b.Viewers()
	}
	return n
}

// Subtree returns the site's core.Broadcast (nil when the site has no
// viewers on this channel).
func (ch *LiveChannel) Subtree(site int) *core.Broadcast {
	t := ch.trees[site]
	if t == nil {
		return nil
	}
	return t.b
}

// Closed reports whether the channel is off the air.
func (ch *LiveChannel) Closed() bool { return ch.closed }

// Join admits one viewer at a member site. Home-site viewers join the
// home tree directly. A remote site's first viewer grows the channel
// to that site: the home trunk's up direction (once per channel) and
// the site's down direction are admission-controlled — a refusal is
// core.ErrTrunk — then one core-switch multicast leaf replicates the
// trunk copy onto the site, and a subtree rooted at its trunk ingress
// admits the viewer's branch. Local link pressure degrades only that
// site's subtree tier, recommitting its trunk leg at the lower rate.
func (ch *LiveChannel) Join(site, port int) (*LiveJoin, error) {
	if ch.closed {
		return nil, ErrChannelClosed
	}
	mb := ch.m.members[site]
	if mb.failed {
		return nil, fmt.Errorf("metro: site %d has failed", site)
	}
	t := ch.trees[site]
	if t == nil {
		var err error
		t, err = ch.growSite(site)
		if err != nil {
			return nil, err
		}
	}
	before := t.b.Factor()
	j, err := t.b.Join(port)
	if err != nil {
		if site != ch.home && t.b.Viewers() == 0 {
			ch.pruneSite(site)
		}
		return nil, err
	}
	ch.syncTrunk(site, t, before)
	return &LiveJoin{ch: ch, site: site, j: j}, nil
}

// growSite subscribes a remote site to the channel: trunk admission
// (up once per channel, down once per site), the core-switch multicast
// leaf, and a fresh subtree at the site's trunk ingress.
func (ch *LiveChannel) growSite(site int) (*subtree, error) {
	m := ch.m
	home := ch.trees[ch.home]
	hm, sm := m.members[ch.home], m.members[site]
	upRate := home.b.Rate()
	needUp := ch.upRate == 0
	downRate := ch.spec.PeakRate
	if (needUp && !hm.Trunk.CanUp(upRate)) || !sm.Trunk.CanDown(downRate) {
		hm.Stats.RefusedTrunk++
		m.Stats.TrunkRefused++
		err := fmt.Errorf("%w: live channel %q homed at site %d", core.ErrTrunk, ch.spec.Title, ch.home)
		ch.traceTrunkRefusal(site, err)
		return nil, err
	}
	// The subtree first: its own admission (the site's netsig budgets)
	// can still refuse, and nothing may be held when it does.
	spec := ch.spec
	spec.InPort = sm.trunkPort
	spec.CPU = nil // the source's CPU contract lives at the home site
	spec.Title = fmt.Sprintf("%s@%s", ch.spec.Title, sm.Site.Config.Name)
	sb, err := sm.Site.OpenBroadcast(spec)
	if err != nil {
		return nil, err
	}
	if needUp {
		// The home tree's single trunk branch: netsig admits it against
		// the trunk port's (unbounded) edge budget; the real budget is
		// the fabric.Trunk commitment below.
		if err := hm.Site.Signalling.JoinTree(home.b.Circuit().ID, hm.trunkPort); err != nil {
			_ = sb.Close()
			return nil, err
		}
		hm.Trunk.CommitUp(upRate)
		ch.upRate = upRate
	}
	sm.Trunk.CommitDown(downRate)
	// One copy per subscribed site: the core switch replicates the
	// trunk copy, rewriting onto the site's subtree circuit.
	m.coreSw.Route(ch.home, home.b.Circuit().VCI, site, sb.Circuit().VCI)
	t := &subtree{b: sb, downRate: downRate}
	ch.trees[site] = t
	return t, nil
}

// pruneSite unsubscribes a remote site, viewers or not: core leaf,
// trunk down commitment and subtree go; the home trunk branch (and its
// up commitment) goes with the last remote site. It reports the
// subtree's Close error.
func (ch *LiveChannel) pruneSite(site int) error {
	m := ch.m
	t := ch.trees[site]
	if t == nil || site == ch.home {
		return nil
	}
	home := ch.trees[ch.home]
	hm, sm := m.members[ch.home], m.members[site]
	m.coreSw.UnrouteLeaf(ch.home, home.b.Circuit().VCI, site, t.b.Circuit().VCI)
	sm.Trunk.ReleaseDown(t.downRate)
	err := t.b.Close()
	delete(ch.trees, site)
	if len(ch.trees) == 1 && ch.upRate > 0 {
		_ = hm.Site.Signalling.LeaveTree(home.b.Circuit().ID, hm.trunkPort)
		hm.Trunk.ReleaseUp(ch.upRate)
		ch.upRate = 0
	}
	return err
}

// syncTrunk recommits a site's trunk leg after its subtree's tier
// moved: the down direction follows the subtree rate (home: the up
// direction follows the home tier).
func (ch *LiveChannel) syncTrunk(site int, t *subtree, beforeFactor float64) {
	if t.b.Factor() == beforeFactor {
		return
	}
	hm := ch.m.members[ch.home]
	if site == ch.home {
		if ch.upRate > 0 {
			hm.Trunk.ReleaseUp(ch.upRate)
			ch.upRate = t.b.Rate()
			hm.Trunk.CommitUp(ch.upRate)
		}
		return
	}
	sm := ch.m.members[site]
	sm.Trunk.ReleaseDown(t.downRate)
	t.downRate = t.b.Rate()
	sm.Trunk.CommitDown(t.downRate)
}

// Leave removes the viewer; a site whose last viewer leaves is
// unsubscribed (trunk budgets released, core leaf pruned). Idempotent.
func (lj *LiveJoin) Leave() error {
	if lj.done {
		return nil
	}
	lj.done = true
	ch := lj.ch
	if ch.closed {
		return nil
	}
	t := ch.trees[lj.site]
	before := t.b.Factor()
	err := lj.j.Leave()
	if lj.site != ch.home && t.b.Viewers() == 0 {
		ch.pruneSite(lj.site)
	} else {
		ch.syncTrunk(lj.site, t, before)
	}
	return err
}

// Close takes the channel off the air everywhere: the remote sites'
// subtrees in site order (so the trace is deterministic), with their
// core leaves and trunk commitments, then the home tree. It reports the
// first Close error. Idempotent.
func (ch *LiveChannel) Close() error {
	if ch.closed {
		return nil
	}
	var err error
	for site := range ch.m.members {
		if cerr := ch.pruneSite(site); err == nil {
			err = cerr
		}
	}
	if cerr := ch.trees[ch.home].b.Close(); err == nil {
		err = cerr
	}
	ch.closed = true
	return err
}

// traceTrunkRefusal records a trunk-refused join in the shared trace
// with the trunk leg's headroom, mirroring spill refusals.
func (ch *LiveChannel) traceTrunkRefusal(site int, err error) {
	tr := ch.m.plane.Tracer()
	if tr == nil {
		return
	}
	th := min(ch.m.members[ch.home].Trunk.Headroom(), ch.m.members[site].Trunk.Headroom())
	tr.Record(tr.GlobalShard(), telemetry.Event{
		T:     ch.m.plane.Clock.Now(),
		Event: "join-refused",
		Node:  ch.spec.Title,
		Leg:   core.LegTrunk.String(),
		Err:   err.Error(),
		Legs:  []telemetry.LegSample{{Leg: core.LegTrunk.String(), OK: false, Headroom: th}},
	})
}
