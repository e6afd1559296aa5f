package core

// The plane: the one owner of the event kernel a run shares and of the
// observability state sized to it. A standalone site builds its own; a
// metro builds one and pins each member site to one of its partitions.

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Plane is everything a run shares: the scheduler (a serial sim.Sim
// for zero partitions, a sim.Cluster otherwise), its control
// partition, round-robin placement onto partitions, the metrics
// registry and the session tracer, both sharded per partition with the
// kernel's ownership rule.
type Plane struct {
	// Clock drives the run loop: the serial Sim, or the cluster.
	// Harnesses call Clock.Run/RunUntil/CallAfter.
	Clock sim.Scheduler
	// Sim is the control partition: partition 0 of a cluster, the only
	// Sim of a serial plane.
	Sim *sim.Sim
	// Metrics is the registry every subsystem on the plane reports
	// into. Reading a merged view is only legal from global or barrier
	// context.
	Metrics *telemetry.Registry

	clu    *sim.Cluster
	tracer *telemetry.Tracer
	next   int
}

// NewPlane builds the kernel for partitions — 0 is serial, 1 the
// one-partition reference cluster (bit-identical to serial), N shards
// under the conservative lookahead — and registers its gauges:
// partN/sim/{events_fired,inbox_depth} per partition, and for more
// than one partition the window, barrier-stall and cross-delivery
// counts under node (so a 1-partition run's metrics stay identical to
// a serial run's).
func NewPlane(node string, partitions int, lookahead sim.Duration) *Plane {
	p := &Plane{}
	if partitions > 0 {
		p.clu = sim.NewCluster(partitions, lookahead)
		p.Sim, p.Clock = p.clu.Part(0), p.clu
	} else {
		p.Sim = sim.New()
		p.Clock = p.Sim
	}
	p.Metrics = telemetry.NewRegistry(p.parts())
	g := func(node, name string, fn func() float64) {
		p.Metrics.Gauge(telemetry.Key{Node: node, Subsystem: "sim", Name: name}, fn)
	}
	for i := 0; i < p.parts(); i++ {
		s := p.part(i)
		g(fmt.Sprintf("part%d", i), "events_fired", func() float64 { return float64(s.Fired()) })
		g(fmt.Sprintf("part%d", i), "inbox_depth", func() float64 { return float64(s.Pending()) })
	}
	if clu := p.clu; p.parts() > 1 {
		g(node, "windows", func() float64 { return float64(clu.Windows()) })
		g(node, "barrier_stalls", func() float64 { return float64(clu.BarrierStalls()) })
		g(node, "cross_delivered", func() float64 { return float64(clu.CrossDelivered()) })
	}
	return p
}

// parts is the partition count, one for a serial plane.
func (p *Plane) parts() int {
	if p.clu == nil {
		return 1
	}
	return p.clu.Parts()
}

// part is partition i (the serial Sim for a serial plane).
func (p *Plane) part(i int) *sim.Sim {
	if p.clu == nil {
		return p.Sim
	}
	return p.clu.Part(i)
}

// place picks the partition for the next node, round-robin from
// partition 0.
func (p *Plane) place() *sim.Sim {
	s := p.part(p.next % p.parts())
	p.next++
	return s
}

// EnableTrace switches per-session lifecycle tracing on for every site
// on the plane, creating the tracer on first use. Call it before any
// session is opened so the trace covers the whole run. Idempotent.
func (p *Plane) EnableTrace() *telemetry.Tracer {
	if p.tracer == nil {
		p.tracer = telemetry.NewTracer(p.parts())
	}
	return p.tracer
}

// Tracer returns the plane's trace recorder, nil until EnableTrace.
func (p *Plane) Tracer() *telemetry.Tracer { return p.tracer }

// Sampler starts a metrics sampler at the given sim-time cadence. On
// more than one partition it rides the lookahead barriers (zero
// events, zero perturbation); serial and single-partition runs chain a
// self-rescheduling tick instead, whose firings Sampler.Ticks counts.
func (p *Plane) Sampler(every sim.Duration) *telemetry.Sampler {
	sp := telemetry.NewSampler(p.Metrics, every)
	if p.parts() > 1 {
		sp.AttachBarrier(p.clu)
	} else {
		sp.Chain(p.Clock)
	}
	return sp
}
