package core

import "errors"

// ErrTrunk refuses a cross-site admission on the inter-site trunk
// budget: both end sites had room but the edge→core→edge path did
// not. It lives in core (not the metro package) so RefusalLeg can map
// it onto LegTrunk without an import cycle; the metro layer wraps it
// with the refusing trunk's detail.
var ErrTrunk = errors.New("core: inter-site trunk capacity exceeded")

// This file is the site's admission *probe* surface: one API that
// answers "would this stream be admitted, and where is the headroom?"
// without holding anything. It replaces the ad-hoc probes callers used
// to assemble themselves — vodsite's CanAdmit bool, raw
// CMService.StreamCost arithmetic, per-package capacity getters — with
// a per-leg report, in the spirit of the congestion-adaptive QoS loop
// of Alaya et al. (PAPERS.md): admission as a function of measured
// per-resource headroom, not a single opaque verdict.
//
// The report covers the full conjunction link ∧ uplink ∧ disk ∧ CPU
// plus the RAM tier as a fifth leg: a cache-servable stream skips the
// disk leg entirely (interval caching, fileserver/cache.go), which a
// boolean probe cannot express — the caller needs to know both that
// the node would admit and *why* (co-scheduling a hot title onto the
// node with its wake is only rational if the cache leg is the reason).

// Leg identifies one resource leg of the admission conjunction.
type Leg int

const (
	// LegLink is the receivers' output links (netsig per-port budget).
	LegLink Leg = iota
	// LegUplink is the sender's link into the switch (when uplink
	// budgeting is on).
	LegUplink
	// LegDisk is the serving node's per-disk round-time budget.
	LegDisk
	// LegCPU is the node's protocol-processing reservation.
	LegCPU
	// LegCache is the node's RAM buffer tier: not a veto leg — a
	// cache-servable stream *skips* LegDisk; a cache miss alone never
	// refuses anything.
	LegCache
	// LegTrunk is the inter-site trunk uplink of a metro federation:
	// the extra admission leg a session spilled to a neighbor site must
	// pass. Site-local probes never exercise it; the metro layer fills
	// it in on composed cross-site reports.
	LegTrunk

	numLegs
)

// String names the leg for scoreboards and errors.
func (l Leg) String() string {
	switch l {
	case LegLink:
		return "link"
	case LegUplink:
		return "uplink"
	case LegDisk:
		return "disk"
	case LegCPU:
		return "cpu"
	case LegCache:
		return "cache"
	case LegTrunk:
		return "trunk"
	}
	return "leg(?)"
}

// LegReport is one leg's share of an admission probe.
type LegReport struct {
	Leg Leg
	// Present reports whether the spec exercises this leg at all: a
	// link-only session has no disk leg, a site without uplink
	// budgeting has no uplink leg. Absent legs are trivially OK with
	// full headroom.
	Present bool
	// OK reports whether this leg would admit the stream right now.
	OK bool
	// Headroom is the leg's free budget fraction in [0, 1] — the
	// measured per-resource headroom replica selection and retry
	// policies rank by. For multi-port legs it is the tightest port's.
	Headroom float64
}

// AdmissionReport is the result of probing one spec against one site:
// the end-to-end verdict plus every leg's headroom.
type AdmissionReport struct {
	// OK reports whether OpenSession would admit the spec at full
	// quality right now. (An Adaptive open may still succeed degraded
	// when OK is false — the report describes the full-quality
	// conjunction.)
	OK bool
	// CacheServed reports that the disk leg would be skipped: the
	// stream rides the RAM tier and charges no disk round budget.
	CacheServed bool
	// FirstRefusal is the first refusing leg in conjunction order
	// (link, uplink, disk, cpu); meaningful only when OK is false.
	FirstRefusal Leg
	// Legs holds every leg's report, indexed by Leg.
	Legs [numLegs]LegReport
}

// Leg returns one leg's report.
func (r AdmissionReport) Leg(l Leg) LegReport { return r.Legs[l] }

// Bottleneck reports the tightest present *veto* leg's (leg, headroom)
// — the node-load figure placement ranks by. The cache leg is excluded:
// an exhausted pin budget never refuses anything (streams just fall
// through to the disks), so it must not make an idle node look
// committed. A report with no present legs has full headroom
// everywhere.
func (r AdmissionReport) Bottleneck() (Leg, float64) {
	leg, h := LegLink, 1.0
	for _, lr := range r.Legs {
		if lr.Present && lr.Leg != LegCache && lr.Headroom < h {
			leg, h = lr.Leg, lr.Headroom
		}
	}
	return leg, h
}

func headroomFrac(free, capacity int64) float64 {
	if capacity <= 0 {
		return 0
	}
	f := float64(free) / float64(capacity)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Probe evaluates the admission conjunction for spec at full quality
// without holding anything: the same budget checks OpenSession runs,
// leg by leg. Probe inspects only the resource legs the spec exercises
// — spec validation (a missing out-port list, a title that is not a
// whole number of rounds) stays with OpenSession, so a spec built only
// to measure a node's load (no OutPorts) probes the node-local legs
// alone. For Guaranteed specs the verdict is exact: Probe(spec).OK iff
// OpenSession(spec) would succeed at full quality right now.
func (st *Site) Probe(spec SessionSpec) AdmissionReport {
	var r AdmissionReport
	for l := Leg(0); l < numLegs; l++ {
		r.Legs[l] = LegReport{Leg: l, OK: true, Headroom: 1}
	}
	m := st.Signalling
	rate := spec.PeakRate

	if len(spec.OutPorts) > 0 {
		lr := &r.Legs[LegLink]
		lr.Present = true
		for _, p := range spec.OutPorts {
			free := m.Capacity(p) - m.Committed(p)
			if h := headroomFrac(free, m.Capacity(p)); h < lr.Headroom {
				lr.Headroom = h
			}
			if rate > free {
				lr.OK = false
			}
		}
	}
	if m.UplinkAdmission() && rate > 0 {
		ur := &r.Legs[LegUplink]
		ur.Present = true
		free := m.UplinkCapacity(spec.InPort) - m.CommittedUplink(spec.InPort)
		ur.Headroom = headroomFrac(free, m.UplinkCapacity(spec.InPort))
		ur.OK = rate <= free
	}
	if spec.CM != nil {
		dr := &r.Legs[LegDisk]
		dr.Present = true
		free := int64(spec.CM.Capacity() - spec.CM.Committed())
		dr.Headroom = headroomFrac(free, int64(spec.CM.Capacity()))
		cost, err := spec.CM.StreamCost(spec.FrameBytes, spec.FrameHz)
		dr.OK = err == nil && int64(cost) <= free

		if spec.CM.CacheEnabled() {
			cr := &r.Legs[LegCache]
			cr.Present = true
			cr.Headroom = headroomFrac(spec.CM.CacheCapacity()-spec.CM.CachePinned(),
				spec.CM.CacheCapacity())
			cr.OK = spec.CM.CanServeCached(spec.Title, spec.FrameBytes, spec.FrameHz)
			r.CacheServed = cr.OK
		}
	}
	if spec.CPU != nil {
		cr := &r.Legs[LegCPU]
		cr.Present = true
		cr.Headroom = 1 - spec.CPU.CommittedFrac()
		if cr.Headroom < 0 {
			cr.Headroom = 0
		}
		fb, hz := (&tier{spec: spec}).cpuGeometryAt(1)
		cr.OK = spec.CPU.CanServe(fb, hz)
	}

	// The verdict: every present veto leg must admit, with a
	// cache-servable stream excusing the disk leg — exactly openAt's
	// order, so FirstRefusal names the leg whose error OpenSession
	// would surface.
	r.OK = true
	for _, l := range [...]Leg{LegLink, LegUplink, LegDisk, LegCPU} {
		lr := r.Legs[l]
		if !lr.Present || lr.OK {
			continue
		}
		if l == LegDisk && r.CacheServed {
			continue
		}
		if r.OK {
			r.OK = false
			r.FirstRefusal = l
		}
	}
	return r
}
