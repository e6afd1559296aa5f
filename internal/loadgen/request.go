package loadgen

// The viewer-request lifecycle the cluster and metro topologies share.
// Viewers issue Zipf-distributed title requests; each request is one
// unicast stream admitted through the topology's opener (the site or
// federation controller), wired from whichever node serves it to the
// viewer's measuring sink, parked when refused and retried when new
// capacity lands, rewired when a failure re-admits it elsewhere and
// dropped when nothing can carry it.

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/sim"
	"repro/internal/vodsite"
)

// session is an admitted request as the lifecycle sees it: a vodsite
// stream (siteStream) or a *metro.Session.
type session interface {
	Node() *vodsite.Node
	CM() *fileserver.CMStream
	SourceVCI() atm.VCI // the circuit the serving node transmits on
	ViewerVCI() atm.VCI // the circuit the viewer receives on
	Closed() bool
}

// siteStream is a single-site stream: one circuit end to end.
type siteStream struct{ *vodsite.Stream }

// SourceVCI is the stream's circuit.
func (s siteStream) SourceVCI() atm.VCI { return s.VCI() }

// ViewerVCI is the stream's circuit.
func (s siteStream) ViewerVCI() atm.VCI { return s.VCI() }

// Closed reports whether the stream is released.
func (s siteStream) Closed() bool { return s.Released() }

// request is one viewer's request for one title: the measuring sink,
// the frame source (migrated to whichever node serves the stream), and
// the session once admitted.
type request struct {
	viewer *core.Endpoint
	title  string
	phase  sim.Duration
	src    *source
	snk    *sink
	sess   session // nil while refused/pending
	vci    atm.VCI // current demux registration (0 when down)
}

// addRequests samples Workstations × StreamsPerWS Zipf-distributed
// title requests from viewers, deterministically, and admits each; the
// refused wait in pending. A source starts on home's timeline; the
// partition serving it is unknown until admission, and wire migrates
// it there.
func (sc *Scenario) addRequests(viewers []*core.Endpoint, home *sim.Sim) {
	cfg := sc.cfg
	z := vodsite.NewZipf(cfg.Titles, cfg.ZipfS)
	rng := rand.New(rand.NewSource(cfg.Seed))
	period := sim.Second / sim.Duration(cfg.FrameHz)
	for i, viewer := range viewers {
		for j := 0; j < cfg.StreamsPerWS; j++ {
			req := &request{
				viewer: viewer,
				title:  titleName(z.Sample(rng.Float64())),
				phase:  sim.Duration(int64(i*cfg.StreamsPerWS+j)*7919) % period,
				snk:    &sink{sim: viewer.Sim, tl: sc.trafficFor(viewer.Sim), period: period},
				src:    sc.newSource(home, nil, period),
			}
			sc.requests = append(sc.requests, req)
			if !sc.admit(req) {
				sc.pending = append(sc.pending, req)
			}
		}
	}
}

// admit opens one request through the topology and wires its source
// and sink; it reports false on refusal.
func (sc *Scenario) admit(req *request) bool {
	s, err := sc.topo.open(sc, req)
	if err != nil {
		if !errors.Is(err, vodsite.ErrNoReplica) && !errors.Is(err, core.ErrTrunk) {
			// Not an over-subscription but a scenario bug: parking it as
			// "refused" would let a misconfiguration impersonate the
			// replication or spill proof.
			panic(fmt.Sprintf("loadgen: title %s not servable: %v", req.title, err))
		}
		return false
	}
	req.sess = s
	sc.wire(req)
	sc.admitted++
	return true
}

// wire points the request's source at the serving node's uplink —
// migrating it onto that node's site and partition — and registers its
// sink under the viewer-side circuit; playout starts when the serving
// replica's first read-ahead window is buffered.
func (sc *Scenario) wire(req *request) {
	s := req.sess
	node := s.Node().SS.Net
	req.src.migrate(node.Sim, sc.trafficFor(node.Sim).framesSent)
	req.src.out = node.ToSwitch
	req.src.vcis = append(req.src.vcis[:0], s.SourceVCI())
	cm := s.CM()
	req.src.cm = cm
	req.vci = s.ViewerVCI()
	req.viewer.Demux.Register(req.vci, req.snk)
	cm.OnReady(func() {
		if req.src.cm == cm {
			req.src.start(req.phase)
		}
	})
}

// retry re-attempts every pending request; requests that still fit
// nowhere stay pending. With probe set, only the requests the
// topology's probe says would be admitted right now reach admission, so
// a retry wave over a still-full site doesn't spin the refusal counters.
func (sc *Scenario) retry(probe bool) {
	keep := sc.pending[:0]
	for _, req := range sc.pending {
		if (!probe || sc.topo.probe(sc, req)) && sc.admit(req) {
			continue
		}
		keep = append(keep, req)
	}
	sc.pending = keep
}

// rewire moves a failover-recovered request onto its new node: fresh
// circuits, fresh demux registration, playout resumes when the new
// node's read-ahead is buffered.
func (sc *Scenario) rewire(req *request) {
	sc.drop(req)
	// The service gap is a migration, not jitter: restart the sink's
	// inter-arrival clock.
	req.snk.started = false
	sc.wire(req)
	sc.admitted++
}

// drop finishes a request whose node died with no surviving capacity:
// source stopped, sink unregistered; it is not retried.
func (sc *Scenario) drop(req *request) {
	req.src.stop()
	req.src.cm = nil
	if req.vci != 0 {
		req.viewer.Demux.Unregister(req.vci)
		req.vci = 0
	}
}
