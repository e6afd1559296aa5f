package metro

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/vodsite"
)

// Property (metro admission exactness, the federation analogue of
// vodsite's TestSiteAdmissionInvariantProperty): under any sequence of
// Guaranteed opens, closes, site failures, clock advances and live
// channel verbs (open, join at any site, leave, a tightened viewer port
// that forces a subtree degrade, close),
//
//   - Probe(home, title, port) names a serving site exactly when
//     OpenSession admits, and the admitted session is served there;
//   - every trunk's committed up rate (netsig, on the trunk port's
//     link) is the sum over the live spilled sessions it serves plus
//     the home trunk branches of the channels homed behind it at their
//     home tier; its committed down rate (the trunk port's uplink) is
//     the sum over the live spilled sessions homed behind it plus the
//     channels' subtrees at the site at their tier; neither ever
//     exceeds TrunkRate, and both read zero once everything is closed.
func TestMetroProbeOpenExactnessProperty(t *testing.T) {
	const sites, nodes, viewers, titles = 3, 1, 6, 4
	prop := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		// Trunks sized in tenths of a stream: at a whole multiple of
		// peakRate every tier climb would fit exactly, and a trunk that
		// over-subscribes on a climb would go unseen.
		cfg := Config{
			Sites:     sites,
			TrunkRate: peakRate * int64(10+rng.Intn(21)) / 10,
			Vod:       vodsite.Config{PeakRate: peakRate},
		}
		holders := make([][]int, titles)
		for i := range holders {
			for s := 0; s < sites; s++ {
				if rng.Intn(2) == 0 {
					holders[i] = append(holders[i], s)
				}
			}
			if len(holders[i]) == 0 {
				holders[i] = []int{rng.Intn(sites)}
			}
		}
		h := buildMetro(t, cfg, nodes, viewers, titles, func(i int) []int { return holders[i] })
		m := h.m
		var (
			open  []*Session
			chans []*LiveChannel
			joins []*LiveJoin
		)

		trunksOK := func() bool {
			up := make([]int64, sites)
			down := make([]int64, sites)
			for _, s := range m.Sessions() {
				if s.Closed() || !s.Spilled() {
					continue
				}
				up[s.Served] += s.rate
				down[s.Home] += s.rate
			}
			for _, ch := range chans {
				for site, b := range ch.trees {
					if site != ch.home {
						down[site] += b.Rate()
					}
				}
				if len(ch.trees) > 1 {
					up[ch.home] += ch.trees[ch.home].Rate()
				}
			}
			for i, mb := range m.Members() {
				u, d := trunkUp(mb), trunkDown(mb)
				if u != up[i] || d != down[i] || u > cfg.TrunkRate || d > cfg.TrunkRate {
					t.Logf("site %d trunk up=%d down=%d, live holds up=%d down=%d, TrunkRate %d",
						i, u, d, up[i], down[i], cfg.TrunkRate)
					return false
				}
			}
			return true
		}

		for i := 0; i < int(nOps); i++ {
			switch op := rng.Intn(16); {
			case op < 6: // open (weighted: the common op)
				home := rng.Intn(sites)
				title := titleName(rng.Intn(titles))
				port := h.viewers[home][rng.Intn(viewers)].Port
				_, served := m.Probe(home, title, port)
				s, err := m.OpenSession(home, title, port)
				if (err == nil) != (served >= 0) {
					t.Logf("seed %d op %d: Probe served=%d, OpenSession err=%v", seed, i, served, err)
					return false
				}
				if s != nil {
					if s.Served != served {
						t.Logf("seed %d op %d: Probe served=%d, session served=%d", seed, i, served, s.Served)
						return false
					}
					open = append(open, s)
				}
			case op < 8:
				if len(open) > 0 {
					k := rng.Intn(len(open))
					open[k].Close()
					open = append(open[:k], open[k+1:]...)
				}
			case op < 9:
				m.Clock().RunFor(sim.Duration(rng.Intn(300)) * sim.Millisecond)
			case op < 10:
				if rng.Intn(4) == 0 {
					m.FailSite(rng.Intn(sites))
				}
			case op < 11: // a channel on the air, its camera a home viewer port
				home := rng.Intn(sites)
				spec := liveSpec(h.viewers[home][rng.Intn(viewers)])
				if ch, err := m.OpenBroadcast(home, spec); err == nil {
					chans = append(chans, ch)
				}
			case op < 13: // a viewer joins any channel at any site
				if len(chans) > 0 {
					ch := chans[rng.Intn(len(chans))]
					site := rng.Intn(sites)
					if j, err := ch.Join(site, h.viewers[site][rng.Intn(viewers)].Port); err == nil {
						joins = append(joins, j)
					}
				}
			case op < 14:
				if len(joins) > 0 {
					k := rng.Intn(len(joins))
					_ = joins[k].Leave()
					joins = append(joins[:k], joins[k+1:]...)
				}
			case op < 15: // a tight viewer port: the next join there degrades
				site := rng.Intn(sites)
				port := h.viewers[site][rng.Intn(viewers)].Port
				m.Member(site).Site.Signalling.SetPortCapacity(port, peakRate*int64(6+rng.Intn(4))/10)
			default:
				if len(chans) > 0 {
					k := rng.Intn(len(chans))
					_ = chans[k].Close()
					chans = append(chans[:k], chans[k+1:]...)
				}
			}
			if !trunksOK() {
				t.Logf("seed %d op %d: trunk commitments disagree with live holds", seed, i)
				return false
			}
		}
		for _, s := range open {
			s.Close()
		}
		for _, ch := range chans {
			_ = ch.Close()
		}
		for _, mb := range m.Members() {
			if trunkUp(mb) != 0 || trunkDown(mb) != 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 12
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
