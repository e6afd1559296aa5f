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
// Guaranteed opens, closes, site failures and clock advances,
//
//   - Probe(home, title, port) names a serving site exactly when
//     OpenSession admits, and the admitted session is served there;
//   - every trunk's committed up rate is the sum over the live spilled
//     sessions it serves, and its committed down rate the sum over the
//     live spilled sessions homed behind it.
func TestMetroProbeOpenExactnessProperty(t *testing.T) {
	const sites, nodes, viewers, titles = 3, 1, 6, 4
	prop := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Sites:     sites,
			TrunkRate: int64(1+rng.Intn(3)) * peakRate,
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
			for i, mb := range m.Members() {
				if mb.Trunk.CommittedUp() != up[i] || mb.Trunk.CommittedDown() != down[i] {
					return false
				}
			}
			return true
		}

		var open []*Session
		for i := 0; i < int(nOps); i++ {
			switch op := rng.Intn(10); {
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
			default:
				if rng.Intn(4) == 0 {
					m.FailSite(rng.Intn(sites))
				}
			}
			if !trunksOK() {
				t.Logf("seed %d op %d: trunk commitments disagree with live sessions", seed, i)
				return false
			}
		}
		for _, s := range open {
			s.Close()
		}
		for _, mb := range m.Members() {
			if mb.Trunk.CommittedUp() != 0 || mb.Trunk.CommittedDown() != 0 {
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
