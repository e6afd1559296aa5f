package metro

// Metro live-broadcast tests: one trunk copy per subscribed site,
// trunk charges held once per channel (up) and once per site (down),
// subtree degrade moving its trunk leg, a climb the trunk cannot carry
// refused, trunk refusals with the spill-admission leg taxonomy, and
// leave-all/Close returning every charge to zero.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/netsig"
	"repro/internal/vodsite"
)

func liveSpec(cam *core.Endpoint) core.BroadcastSpec {
	return core.BroadcastSpec{
		InPort:     cam.Port,
		PeakRate:   peakRate,
		Title:      "live",
		FrameBytes: frameBytes,
		FrameHz:    frameHz,
	}
}

// One cell-train copy crosses the metro core per subscribed site, no
// matter how many viewers each site holds; the home trunk's up
// direction is charged once per channel, each site's down direction
// once per site, and leave-all releases everything.
func TestMetroLiveOneCopyPerSite(t *testing.T) {
	cfg := Config{Sites: 3, Vod: vodsite.Config{ReplicationDisabled: true}}
	h := buildMetro(t, cfg, 1, 4, 1, func(int) []int { return []int{0} })
	m := h.m

	cam := h.viewers[0][3]
	ch, err := m.OpenBroadcast(0, liveSpec(cam))
	if err != nil {
		t.Fatal(err)
	}
	homeVCI := ch.Subtree(0).Circuit().VCI
	if got := trunkUp(m.Member(0)); got != 0 {
		t.Fatalf("open committed %d on the home trunk before any remote viewer", got)
	}

	var joins []*LiveJoin
	for _, jp := range []struct{ site, v int }{{0, 0}, {1, 0}, {1, 1}, {2, 0}} {
		j, err := ch.Join(jp.site, h.viewers[jp.site][jp.v].Port)
		if err != nil {
			t.Fatalf("join site %d viewer %d: %v", jp.site, jp.v, err)
		}
		joins = append(joins, j)
	}
	if ch.Viewers() != 4 {
		t.Fatalf("Viewers = %d, want 4", ch.Viewers())
	}
	// Two subscribed remote sites → exactly two core-switch leaves on
	// the home tree's trunk circuit: site 1's second viewer rides its
	// site's one copy.
	if got := m.coreSw.Leaves(0, homeVCI); got != 2 {
		t.Fatalf("core switch carries %d leaves for the channel, want 2 (one per site)", got)
	}
	if got, want := trunkUp(m.Member(0)), ch.Subtree(0).Rate(); got != want {
		t.Fatalf("home trunk up committed %d, want %d (once per channel)", got, want)
	}
	for _, site := range []int{1, 2} {
		if got := trunkDown(m.Member(site)); got != peakRate {
			t.Fatalf("site %d trunk down committed %d, want %d (once per site)", site, got, peakRate)
		}
		if got := trunkUp(m.Member(site)); got != 0 {
			t.Fatalf("site %d trunk up committed %d for a downstream channel", site, got)
		}
	}

	// Site 1's first leave keeps its copy (a viewer remains); the last
	// leave unsubscribes the site.
	if err := joins[1].Leave(); err != nil {
		t.Fatal(err)
	}
	if got := m.coreSw.Leaves(0, homeVCI); got != 2 {
		t.Fatalf("leave with a sibling viewer pruned the site's copy (leaves=%d)", got)
	}
	if err := joins[2].Leave(); err != nil {
		t.Fatal(err)
	}
	if ch.Subtree(1) != nil {
		t.Fatal("empty site still subscribed")
	}
	if got := trunkDown(m.Member(1)); got != 0 {
		t.Fatalf("unsubscribed site still commits %d down", got)
	}
	if got := m.coreSw.Leaves(0, homeVCI); got != 1 {
		t.Fatalf("core leaves = %d after site 1 unsubscribed, want 1", got)
	}

	// The last remote site's leave releases the channel's up leg too.
	if err := joins[3].Leave(); err != nil {
		t.Fatal(err)
	}
	if got := trunkUp(m.Member(0)); got != 0 {
		t.Fatalf("home trunk up still committed %d with no remote site", got)
	}
	if got := m.coreSw.Leaves(0, homeVCI); got != 0 {
		t.Fatalf("core leaves = %d with no remote site, want 0", got)
	}

	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	for site := 0; site < 3; site++ {
		mb := m.Member(site)
		if up, down := trunkUp(mb), trunkDown(mb); up != 0 || down != 0 {
			t.Fatalf("close left site %d trunk at up=%d down=%d", site, up, down)
		}
	}
}

// A remote join the trunk cannot carry refuses with core.ErrTrunk,
// counts as a trunk refusal, leaves a join-refused trace event on the
// trunk leg, and holds nothing.
func TestMetroLiveTrunkRefusal(t *testing.T) {
	cfg := Config{
		Sites:     2,
		Vod:       vodsite.Config{ReplicationDisabled: true},
		TrunkRate: peakRate / 2,
	}
	h := buildMetro(t, cfg, 1, 4, 1, func(int) []int { return []int{0} })
	m := h.m
	tr := m.Plane().EnableTrace()

	ch, err := m.OpenBroadcast(0, liveSpec(h.viewers[0][3]))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ch.Join(1, h.viewers[1][0].Port)
	if !errors.Is(err, core.ErrTrunk) {
		t.Fatalf("join over a sized trunk returned %v, want core.ErrTrunk", err)
	}
	if m.Member(0).Stats.RefusedTrunk != 1 || m.Stats.TrunkRefused != 1 {
		t.Fatalf("trunk refusal not counted: %+v / %+v", m.Member(0).Stats, m.Stats)
	}
	if ch.Subtree(1) != nil || trunkUp(m.Member(0)) != 0 {
		t.Fatal("refused join held a subtree or the up leg")
	}
	if got := trunkDown(m.Member(1)); got != 0 {
		t.Fatalf("refused join held %d on the down leg", got)
	}
	refused := 0
	for _, ev := range tr.Events() {
		if ev.Event != "join-refused" || ev.Leg != core.LegTrunk.String() {
			continue
		}
		refused++
		if len(ev.Legs) != 1 || ev.Legs[0].OK || ev.Legs[0].Headroom < 0 || ev.Legs[0].Headroom > 1 {
			t.Fatalf("trunk refusal legs malformed: %+v", ev.Legs)
		}
	}
	if refused != 1 {
		t.Fatalf("%d trunk join-refused trace events, want 1", refused)
	}

	// A home-site viewer is untouched by the trunk: joins fine.
	if _, err := ch.Join(0, h.viewers[0][0].Port); err != nil {
		t.Fatalf("home join refused by a trunk problem: %v", err)
	}
}

// A remote subtree that degrades under local link pressure recommits
// its trunk down leg at the degraded rate — the trunk only carries
// what the site's viewers actually receive — and climbs back (leg
// recommitted at full) when the pressure leaves.
func TestMetroLiveSubtreeDegradeRecommitsTrunk(t *testing.T) {
	cfg := Config{Sites: 2, Vod: vodsite.Config{ReplicationDisabled: true}}
	h := buildMetro(t, cfg, 1, 4, 1, func(int) []int { return []int{0} })
	m := h.m

	ch, err := m.OpenBroadcast(0, liveSpec(h.viewers[0][3]))
	if err != nil {
		t.Fatal(err)
	}
	tight := h.viewers[1][1].Port
	m.Member(1).Site.Signalling.SetPortCapacity(tight, peakRate*8/10)

	if _, err := ch.Join(1, h.viewers[1][0].Port); err != nil {
		t.Fatal(err)
	}
	if got := trunkDown(m.Member(1)); got != peakRate {
		t.Fatalf("uncontended subscription commits %d down, want %d", got, peakRate)
	}
	jTight, err := ch.Join(1, tight)
	if err != nil {
		t.Fatalf("pressured join refused instead of degrading: %v", err)
	}
	sub := ch.Subtree(1)
	if !sub.Degraded() {
		t.Fatal("pressured join did not degrade the subtree")
	}
	if got, want := trunkDown(m.Member(1)), sub.Rate(); got != want {
		t.Fatalf("degraded subtree's trunk leg committed %d, want the degraded %d", got, want)
	}
	// Only the remote subtree moved: the home tier (and up leg) is its
	// own ladder.
	if ch.Subtree(0).Degraded() {
		t.Fatal("remote pressure degraded the home tree")
	}
	if got, want := trunkUp(m.Member(0)), ch.Subtree(0).Rate(); got != want {
		t.Fatalf("home up leg committed %d, want %d", got, want)
	}

	if err := jTight.Leave(); err != nil {
		t.Fatal(err)
	}
	if sub.Degraded() {
		t.Fatal("slack-making leave did not restore the subtree")
	}
	if got := trunkDown(m.Member(1)); got != peakRate {
		t.Fatalf("restored subtree's trunk leg committed %d, want %d", got, peakRate)
	}
}

// Close tears the remote subtrees down in site order, so a channel
// spanning four sites writes the same trace on every run (map order
// must not leak into it) and returns every trunk budget to zero.
func TestMetroLiveCloseDeterministic(t *testing.T) {
	run := func() []byte {
		cfg := Config{Sites: 4, Vod: vodsite.Config{ReplicationDisabled: true}}
		h := buildMetro(t, cfg, 1, 4, 1, func(int) []int { return []int{0} })
		m := h.m
		tr := m.Plane().EnableTrace()
		ch, err := m.OpenBroadcast(0, liveSpec(h.viewers[0][3]))
		if err != nil {
			t.Fatal(err)
		}
		for site := 1; site < 4; site++ {
			if _, err := ch.Join(site, h.viewers[site][0].Port); err != nil {
				t.Fatalf("join at site %d: %v", site, err)
			}
		}
		if err := ch.Close(); err != nil {
			t.Fatal(err)
		}
		for site := 0; site < 4; site++ {
			if up, down := trunkUp(m.Member(site)), trunkDown(m.Member(site)); up != 0 || down != 0 {
				t.Fatalf("close left site %d trunk at up=%d down=%d", site, up, down)
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := run()
	for i := 1; i < 10; i++ {
		if !bytes.Equal(run(), first) {
			t.Fatalf("run %d: close trace differs from the first run's", i)
		}
	}
}

// The trunk ledger cannot drift from its live holds: with a channel's
// home tree degraded by a tight local port and a spilled VoD session
// sharing the home trunk's up direction, the tight viewer's leave lets
// the home tree climb only if the trunk can carry the climb. Here it
// cannot, so the tree stays degraded; the committed up rate is always
// the sum of the holds and never above TrunkRate, and closing the
// channel and then the session returns it to zero.
func TestMetroLiveRestoreCannotOversubscribeTrunk(t *testing.T) {
	cfg := Config{
		Sites:     3,
		Vod:       vodsite.Config{ReplicationDisabled: true},
		TrunkRate: peakRate * 19 / 10,
	}
	h := buildMetro(t, cfg, 1, 4, 1, func(int) []int { return []int{0} })
	m := h.m
	home := m.Member(0)

	ch, err := m.OpenBroadcast(0, liveSpec(h.viewers[0][3]))
	if err != nil {
		t.Fatal(err)
	}
	var spills []*Session
	// checkUp asserts site 0's up charge is exactly its live holds: the
	// channel's trunk branch at the home tier plus the sessions it
	// serves across the trunk.
	checkUp := func(when string) {
		t.Helper()
		var want int64
		if !ch.Closed() && ch.Subtree(2) != nil {
			want += ch.Subtree(0).Rate()
		}
		for _, s := range spills {
			if !s.Closed() {
				want += s.rate
			}
		}
		if got := trunkUp(home); got != want || got > cfg.TrunkRate {
			t.Errorf("%s: site 0 trunk up committed %d, want %d (the live holds) <= %d",
				when, got, want, cfg.TrunkRate)
		}
	}

	if _, err := ch.Join(2, h.viewers[2][0].Port); err != nil {
		t.Fatal(err)
	}
	checkUp("remote viewer joined")
	tight := h.viewers[0][1].Port
	home.Site.Signalling.SetPortCapacity(tight, peakRate*8/10)
	jTight, err := ch.Join(0, tight)
	if err != nil {
		t.Fatalf("tight home join refused instead of degrading: %v", err)
	}
	if !ch.Subtree(0).Degraded() {
		t.Fatal("tight home join did not degrade the home tree")
	}
	checkUp("home tree degraded")

	s, err := m.OpenSession(1, titleName(0), h.viewers[1][0].Port)
	if err != nil {
		t.Fatalf("spill from site 0 refused: %v", err)
	}
	if s.Served != 0 {
		t.Fatalf("session served at site %d, want 0", s.Served)
	}
	spills = append(spills, s)
	checkUp("spill served by site 0")

	// The climb back to full quality needs more up bandwidth than the
	// trunk has left: it is refused and the home tree stays degraded.
	if err := jTight.Leave(); err != nil {
		t.Fatal(err)
	}
	if !ch.Subtree(0).Degraded() {
		t.Error("home tree climbed past the trunk's capacity")
	}
	checkUp("tight viewer left")

	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	checkUp("channel closed")
	s.Close()
	checkUp("spill closed")
	for i, mb := range m.Members() {
		if up, down := trunkUp(mb), trunkDown(mb); up != 0 || down != 0 {
			t.Fatalf("site %d trunk left at up=%d down=%d", i, up, down)
		}
	}
}

// A leave that unsubscribes a site reports the unsubscription's error
// (here the home tree's trunk branch is already gone, torn down behind
// the channel's back), and still unsubscribes the site.
func TestMetroLiveLeaveReportsPruneError(t *testing.T) {
	cfg := Config{Sites: 2, Vod: vodsite.Config{ReplicationDisabled: true}}
	h := buildMetro(t, cfg, 1, 4, 1, func(int) []int { return []int{0} })
	m := h.m

	ch, err := m.OpenBroadcast(0, liveSpec(h.viewers[0][3]))
	if err != nil {
		t.Fatal(err)
	}
	j, err := ch.Join(1, h.viewers[1][0].Port)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Member(0).Site.Signalling.TearDown(ch.Subtree(0).Circuit().ID); err != nil {
		t.Fatal(err)
	}
	if err := j.Leave(); !errors.Is(err, netsig.ErrNoCircuit) {
		t.Fatalf("Leave = %v, want the trunk branch's netsig.ErrNoCircuit", err)
	}
	if ch.Subtree(1) != nil || trunkDown(m.Member(1)) != 0 {
		t.Fatal("failed unsubscription left site 1 subscribed")
	}
}
