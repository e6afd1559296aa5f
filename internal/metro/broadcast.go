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
// Budgets are netsig's, like every other link's: the home tree's trunk
// branch charges the home trunk's up direction once per channel (at
// the home tier's rate), and each subscribed site's subtree, rooted at
// its trunk port, charges that trunk's down direction as the tree's
// uplink (at the site's subtree tier). So the tier ladder moves the
// trunk legs with everything else: a subtree that degrades under local
// join pressure shrinks its down leg in place — the model is a layered
// stream whose enhancement cells the trunk ingress drops, so a
// degraded site's links (trunk included) only carry the degraded rate
// — and a climb the trunk cannot carry is refused like any other. A
// join refused because a trunk direction lacks headroom surfaces
// core.ErrTrunk, the same leg taxonomy as spill admission.

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// ErrChannelClosed reports a verb on a closed metro channel.
var ErrChannelClosed = errors.New("metro: live channel is closed")

// LiveChannel is one live broadcast spanning the federation.
type LiveChannel struct {
	m    *Controller
	home int
	spec core.BroadcastSpec

	// trees holds each subscribed site's subtree, home included; the
	// home tree has its trunk branch exactly while a remote site is
	// subscribed.
	trees  map[int]*core.Broadcast
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
	ch := &LiveChannel{m: m, home: home, spec: spec, trees: map[int]*core.Broadcast{home: b}}
	return ch, nil
}

// Home reports the channel's home site.
func (ch *LiveChannel) Home() int { return ch.home }

// Viewers reports the channel's total viewer count across all sites.
func (ch *LiveChannel) Viewers() int {
	n := 0
	for _, b := range ch.trees {
		n += b.Viewers()
	}
	return n
}

// Subtree returns the site's core.Broadcast (nil when the site has no
// viewers on this channel).
func (ch *LiveChannel) Subtree(site int) *core.Broadcast { return ch.trees[site] }

// Closed reports whether the channel is off the air.
func (ch *LiveChannel) Closed() bool { return ch.closed }

// Join admits one viewer at a member site. Home-site viewers join the
// home tree directly. A remote site's first viewer grows the channel
// to that site: the home trunk's up direction (once per channel) and
// the site's down direction are admission-controlled — a refusal is
// core.ErrTrunk — then one core-switch multicast leaf replicates the
// trunk copy onto the site, and a subtree rooted at its trunk ingress
// admits the viewer's branch. Local link pressure degrades only that
// site's subtree tier, shrinking its trunk leg to the lower rate.
func (ch *LiveChannel) Join(site, port int) (*LiveJoin, error) {
	if ch.closed {
		return nil, ErrChannelClosed
	}
	mb := ch.m.members[site]
	if mb.failed {
		return nil, fmt.Errorf("metro: site %d has failed", site)
	}
	b := ch.trees[site]
	if b == nil {
		var err error
		b, err = ch.growSite(site)
		if err != nil {
			return nil, err
		}
	}
	j, err := b.Join(port)
	if err != nil {
		if site != ch.home && b.Viewers() == 0 {
			_ = ch.pruneSite(site) // the join's refusal is what the caller needs
		}
		return nil, err
	}
	return &LiveJoin{ch: ch, site: site, j: j}, nil
}

// growSite subscribes a remote site to the channel: trunk admission
// (up once per channel, down once per site), the core-switch multicast
// leaf, and a fresh subtree at the site's trunk ingress.
func (ch *LiveChannel) growSite(site int) (*core.Broadcast, error) {
	m := ch.m
	home := ch.trees[ch.home]
	hm, sm := m.members[ch.home], m.members[site]
	// The first remote site grows the home tree's trunk branch.
	needUp := len(ch.trees) == 1
	var upRate int64
	if needUp {
		upRate = home.Rate()
	}
	if !m.trunkLeg(hm, sm, upRate, ch.spec.PeakRate).OK {
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
		if err := hm.Site.Signalling.JoinTree(home.Circuit().ID, hm.trunkPort); err != nil {
			_ = sb.Close()
			return nil, err
		}
	}
	// One copy per subscribed site: the core switch replicates the
	// trunk copy, rewriting onto the site's subtree circuit.
	m.coreSw.Route(ch.home, home.Circuit().VCI, site, sb.Circuit().VCI)
	ch.trees[site] = sb
	return sb, nil
}

// pruneSite unsubscribes a remote site, viewers or not: core leaf and
// subtree (with its trunk down charge) go; the home tree's trunk
// branch (with its up charge) goes with the last remote site. It
// reports the first error of the subtree's Close and the branch's
// LeaveTree.
func (ch *LiveChannel) pruneSite(site int) error {
	sb := ch.trees[site]
	if sb == nil || site == ch.home {
		return nil
	}
	home := ch.trees[ch.home]
	hm := ch.m.members[ch.home]
	ch.m.coreSw.UnrouteLeaf(ch.home, home.Circuit().VCI, site, sb.Circuit().VCI)
	err := sb.Close()
	delete(ch.trees, site)
	if len(ch.trees) == 1 {
		if lerr := hm.Site.Signalling.LeaveTree(home.Circuit().ID, hm.trunkPort); err == nil {
			err = lerr
		}
	}
	return err
}

// Leave removes the viewer; a site whose last viewer leaves is
// unsubscribed (trunk charges released, core leaf pruned). It reports
// the first error of the leave and the unsubscription. Idempotent.
func (lj *LiveJoin) Leave() error {
	if lj.done {
		return nil
	}
	lj.done = true
	ch := lj.ch
	if ch.closed {
		return nil
	}
	err := lj.j.Leave()
	if lj.site != ch.home && ch.trees[lj.site].Viewers() == 0 {
		if perr := ch.pruneSite(lj.site); err == nil {
			err = perr
		}
	}
	return err
}

// Close takes the channel off the air everywhere: the remote sites'
// subtrees in site order (so the trace is deterministic), with their
// core leaves and trunk charges, then the home tree. It reports the
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
	if cerr := ch.trees[ch.home].Close(); err == nil {
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
	tl := ch.m.trunkLeg(ch.m.members[ch.home], ch.m.members[site], 0, 0)
	tr.Record(tr.GlobalShard(), telemetry.Event{
		T:     ch.m.plane.Clock.Now(),
		Event: "join-refused",
		Node:  ch.spec.Title,
		Leg:   core.LegTrunk.String(),
		Err:   err.Error(),
		Legs:  []telemetry.LegSample{{Leg: core.LegTrunk.String(), OK: false, Headroom: tl.Headroom}},
	})
}
