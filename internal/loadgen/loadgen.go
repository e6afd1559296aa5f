// Package loadgen is the site-scale load generator and scoreboard: it
// admits N workstations × M streams through the signalling manager
// (videophone mesh, or VoD fan-out from storage servers), runs them for
// simulated seconds on the batched fabric fast path, and reports
// events/sec, cells/sec, admission verdicts and latency/jitter
// percentiles — the scaling numbers every performance PR is measured
// against.
//
// Streams are synthetic CBR frame sources (a fixed AAL5 payload at a
// fixed frame rate, stamped with the emission instant) rather than full
// camera devices: the point is to stress the event kernel, fabric and
// signalling layers at populations the pixel pipeline would drown out.
//
// The scenarios exercise the paper's whole guarantee chain at site
// scale: §2.2's ATM signalling admission on every link, §5's
// round-scheduled continuous-media file service on every disk array
// (-from-storage, -cluster), and §3.3's QoS-managed sessions — CPU
// reservations included — under the negotiate-down policy (-adaptive,
// -cpu-bound).
//
// Scenarios are data: one row per topology in the scenarios table
// (scenario.go) declares how a Config selects it, its defaults, the
// options it reads, whether it is storage-backed, the ablation twins it
// supports and its build, start and collect hooks. Config.Validate,
// Build, Run and the scoreboard all read the rows.
package loadgen

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/disk"
	"repro/internal/fabric"
	"repro/internal/fileserver"
	"repro/internal/metro"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/vodsite"
)

// Pattern selects the traffic topology.
type Pattern int

// Traffic patterns.
const (
	// Mesh is the videophone pattern: every workstation sends M streams
	// to M distinct peers, one circuit per stream.
	Mesh Pattern = iota
	// VoD is the video-on-demand pattern: storage servers publish
	// titles on point-to-multipoint circuits and every workstation
	// subscribes to M of them (the switch fans the cells out; the
	// server sends each title once).
	VoD
)

// String names the pattern as the pegload -pattern flag spells it.
func (p Pattern) String() string {
	switch p {
	case Mesh:
		return "mesh"
	case VoD:
		return "vod"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// cpuPerFrame is a CPUBound node's fixed per-frame protocol cost. It
// does not shrink with a degraded tier, which is what keeps the CPU —
// not the disks — the binding constraint even when every Adaptive
// session sits at its floor.
const cpuPerFrame = sim.Millisecond

// Config parameterises a load-generation scenario. The topology
// booleans (FromStorage, Cluster, Metro, Live, Adaptive/CPUBound) and
// Pattern select one row of the scenario table (scenario.go); every
// other option must be one that row reads (see Validate), and zero
// options take the row's defaults.
type Config struct {
	Pattern      Pattern
	Workstations int // N stations (mesh: senders+receivers; vod: viewers)
	StreamsPerWS int // M streams admitted per station

	// Servers is the storage-server count (VoD default: one per 16
	// workstations).
	Servers int

	// FrameBytes is the AAL5 payload per frame (default 960; min 16 for
	// the timestamp header). FrameHz is the per-stream frame rate
	// (default 100).
	FrameBytes int
	FrameHz    int

	// PeakRate is the admitted peak bits/s per stream leg; 0 derives
	// ~1.25x the wire demand of FrameBytes×FrameHz.
	PeakRate int64

	// Duration is the simulated run length (default 1 virtual second).
	Duration sim.Duration

	// LinkRate overrides the site's link bit rate (default 100 Mb/s).
	LinkRate int64

	// CellAccurate disables the batched fabric fast path (one event per
	// cell — the exact model, for validation runs).
	CellAccurate bool

	// FromStorage makes VoD titles real files on the servers' disk
	// arrays, served through the continuous-media round scheduler:
	// admission becomes the conjunction of link (netsig) and disk
	// (fileserver.CMService) guarantees, and every frame sent was read
	// off the striped array one round ahead.
	FromStorage bool

	// Round is the storage scheduler period; it must be a whole number
	// of frame periods. TitleRounds is the stored length of each title
	// in rounds; playout loops over it.
	Round       sim.Duration
	TitleRounds int

	// Cluster runs the multi-server VoD site (cluster.go): Servers
	// storage nodes under an internal/vodsite controller.
	Cluster bool

	// Titles is the catalog size. ZipfS is the popularity exponent of
	// both placement and request sampling; Seed seeds the request
	// sampler.
	Titles int
	ZipfS  float64
	Seed   int64

	// BaseReplicas / RefusalThreshold / MaxReplicas /
	// ReplicationDisabled pass through to vodsite.Config.
	BaseReplicas        int
	RefusalThreshold    int
	MaxReplicas         int
	ReplicationDisabled bool

	// FailNodeAt tears node FailNode down that far into the run
	// (0: never): its circuits are released and its streams re-admitted
	// on surviving replicas.
	FailNodeAt sim.Duration
	FailNode   int

	// Metro federates Sites vodsite sites of Servers nodes each behind a
	// two-tier fabric (metro.go) — the flash-crowd scenario.
	Metro bool
	// Sites is the federation size. SiteReplicas is how many sites hold
	// each title's bytes (capped at Sites).
	Sites        int
	SiteReplicas int
	// NoSpill runs the single-site ablation: home-site refusals are
	// final. TrunkRate overrides the per-direction trunk capacity.
	// SpillThreshold passes through to metro.Config (cross-site lazy
	// replication trigger). FailSiteAt kills whole site FailSite that
	// far into the run (0: never).
	NoSpill        bool
	TrunkRate      int64
	SpillThreshold int
	FailSiteAt     sim.Duration
	FailSite       int

	// Adaptive runs the degrade-instead-of-refuse scenario
	// (adaptive.go): every request is one unicast disk-backed stream
	// opened as an Adaptive-class core.Session.
	Adaptive bool

	// GuaranteedOnly forces every session to the Guaranteed class —
	// the ablation an Adaptive scoreboard is compared against.
	GuaranteedOnly bool

	// CPUBound runs the CPU-constrained scenario on the Adaptive
	// topology (adaptive.go): every serving node's CPU is
	// admission-controlled, so the processor — not the disks or links —
	// is the scarce resource. It combines with Adaptive.
	CPUBound bool

	// CPUBytesPerSec is the nodes' protocol-processing throughput in
	// bytes/s; each frame also costs cpuPerFrame.
	CPUBytesPerSec int64

	// Live runs the live-broadcast flash crowd (live.go):
	// Workstations × StreamsPerWS viewer join attempts on Channels
	// multicast channels, beside VodStreams disk-backed VoD sessions.
	Live bool
	// Channels is the number of live channels. Each gets its own camera
	// port and one uplink reservation however many viewers join.
	Channels int
	// HoldMean is the mean viewer hold time.
	HoldMean sim.Duration
	// VodStreams is the background VoD population (negative disables).
	VodStreams int
	// Unicast is the live ablation twin: every viewer gets their own
	// circuit from the camera — uplink charged per viewer, one
	// transmitted copy each, no subtree ladder — so the scoreboard can
	// state what the multicast tree bought.
	Unicast bool

	// ReleaseAt closes every ReleaseEvery'th admitted stream that far
	// into an Adaptive run (ReleaseEvery < 0 disables), freeing budget
	// the site uses to restore degraded survivors.
	ReleaseAt    sim.Duration
	ReleaseEvery int

	// Partitions shards the event kernel across that many conservative-
	// lookahead partitions (see core.SiteConfig.Partitions): nodes are
	// spread round-robin, each partition runs on its own goroutine, and
	// the run is deterministic for a given (Seed, Partitions) pair — with
	// Partitions == 1 bit-identical to the serial kernel. Zero keeps the
	// serial kernel. Only the topologies that keep control-plane verbs
	// in global context read it; the shared-fabric patterns stay serial.
	Partitions int

	// FastDisks swaps the 1994 drive mechanics for flash-era ones
	// (~35 µs repositioning, 500 MB/s media rate), lifting per-node
	// stream counts from tens to tens of thousands — the knob 100k-
	// session cluster runs turn.
	FastDisks bool

	// CacheMB sizes each serving node's RAM buffer tier in MiB (0
	// disables). With a cache, a request trailing another viewer of the
	// same title is admitted against the leader's wake in memory —
	// charging no disk round budget — so a Zipf-hot catalog serves far
	// more streams than the disk arms alone admit.
	CacheMB int

	// Trace switches per-session lifecycle tracing on (see
	// Scenario.WriteTrace). Excluded from the scoreboard's config echo
	// so enabling telemetry cannot change scoreboard bytes.
	Trace bool `json:"-"`

	// MetricsEvery is the sim-time cadence of the metrics time-series
	// sampler (0 disables; see Scenario.WriteMetrics). Excluded from
	// the config echo for the same reason as Trace.
	MetricsEvery sim.Duration `json:"-"`
}

// Result is the scoreboard of one run. The json tags are a stable,
// named serialization contract: `pegload -json` emits exactly these
// columns via Result.JSON, and CI assertions read the same struct —
// renaming a Go field must not silently rename a scoreboard column.
type Result struct {
	Config Config `json:"config"`

	Admitted int `json:"admitted"`  // stream legs admitted by signalling
	Rejected int `json:"rejected"`  // stream legs refused by admission control
	TornDown int `json:"torn_down"` // teardowns performed (churn)

	FramesSent      int64 `json:"frames_sent"`
	FramesDelivered int64 `json:"frames_delivered"`
	CellsDelivered  int64 `json:"cells_delivered"`
	EventsFired     int64 `json:"events_fired"`

	SimSeconds  float64 `json:"sim_seconds"`
	WallSeconds float64 `json:"wall_seconds"`

	// Wall-clock simulator throughput: the scaling numbers.
	EventsPerSec float64 `json:"events_per_sec"`
	CellsPerSec  float64 `json:"cells_per_sec"`

	// Frame delivery latency (emission to last-cell arrival) and
	// completion jitter (|inter-arrival − frame period|), nanoseconds of
	// virtual time.
	LatencyP50 float64 `json:"latency_p50_ns"`
	LatencyP99 float64 `json:"latency_p99_ns"`
	LatencyMax float64 `json:"latency_max_ns"`
	JitterP50  float64 `json:"jitter_p50_ns"`
	JitterP99  float64 `json:"jitter_p99_ns"`

	// Storage-backed serving (every run with disk-backed streams).
	StorageStreams int `json:"storage_streams"` // disk-backed title streams admitted and up
	// StorageRefused counts disk-bandwidth refusals: titles refused
	// (FromStorage), or per-replica refusal attempts during selection
	// (Cluster — one site refusal probes several replicas).
	StorageRefused int   `json:"storage_refused"`
	RoundOverruns  int64 `json:"round_overruns"`  // scheduler rounds whose reads outlived the round
	Underruns      int64 `json:"underruns"`       // playout ticks that found no buffered data
	StorageBytes   int64 `json:"storage_bytes"`   // bytes streamed out of server read-ahead buffers
	DiskBytesRead  int64 `json:"disk_bytes_read"` // bytes the server disk heads actually read

	// RAM-tier scoreboard (CacheMB > 0 runs): streams riding another
	// viewer's wake instead of the disk arms, and the hit/demotion
	// traffic behind them.
	CacheServedStreams int   `json:"cache_served_streams"` // open streams currently served from a wake
	CacheHits          int64 `json:"cache_hits"`           // windows served out of the RAM tier
	CacheMisses        int64 `json:"cache_misses"`         // cache-served fetches that found no window
	CacheDemotions     int64 `json:"cache_demotions"`      // streams pushed back onto the disk budget
	CacheBytesServed   int64 `json:"cache_bytes_served"`   // bytes streamed without touching a disk

	// Ablation column (pegload -ablate cache): the no-cache twin run's
	// stream count and the cached/ablation admission ratio.
	AblationStreams int     `json:"ablation_streams,omitempty"`
	CacheRatio      float64 `json:"cache_ratio,omitempty"`

	// Multi-server site scoreboard (Cluster runs; Metro runs share
	// SiteRefused for requests no site could carry).
	NodeAdmissions    []int64 `json:"node_admissions"`    // cumulative admissions per node (incl. failover)
	SiteRefused       int     `json:"site_refused"`       // requests no replica could carry, still pending at end
	ReplicasTriggered int64   `json:"replicas_triggered"` // reactive replications scheduled
	ReplicasCompleted int64   `json:"replicas_completed"` // replicas that joined the catalog
	FailoverRecovered int64   `json:"failover_recovered"` // streams re-admitted on surviving replicas
	FailoverDropped   int64   `json:"failover_dropped"`   // streams lost with their node

	// Metro federation scoreboard (Metro runs only).
	SiteServed        []int64 `json:"site_served,omitempty"`        // open sessions served per site at end
	Spilled           int64   `json:"spilled,omitempty"`            // cross-site admissions
	TrunkRefused      int64   `json:"trunk_refused,omitempty"`      // refusals where the trunk was the binding leg
	SiteRecovered     int64   `json:"site_recovered,omitempty"`     // sessions re-admitted on survivors after FailSite
	SiteDropped       int64   `json:"site_dropped,omitempty"`       // sessions lost to a site failure
	CatalogSyncs      int64   `json:"catalog_syncs,omitempty"`      // anti-entropy rounds run
	CatalogReconciled int64   `json:"catalog_reconciled,omitempty"` // catalog rows brought up to date
	CrossSiteCopies   int64   `json:"cross_site_copies,omitempty"`  // lazy byte replications completed
	// Ablation column (pegload -ablate spill): the no-spill twin run's
	// admission count.
	SpillAblationAdmitted int `json:"spill_ablation_admitted,omitempty"`

	// Live-broadcast scoreboard (Live runs only). FanoutCellsSaved is
	// the copies the switch replicated that the source never had to
	// transmit; FanoutRatio is delivered copies per transmitted copy —
	// (source cells + saved) / source cells, 1.0 for the unicast twin.
	Broadcasts       int     `json:"broadcasts,omitempty"`
	LiveJoins        int64   `json:"joins,omitempty"`
	LiveLeaves       int64   `json:"leaves,omitempty"`
	LiveJoinRefused  int64   `json:"join_refused,omitempty"`
	SubtreeDegraded  int64   `json:"subtree_degraded,omitempty"`
	SubtreeRestored  int64   `json:"subtree_restored,omitempty"`
	LiveSourceCells  int64   `json:"live_source_cells,omitempty"`
	FanoutCellsSaved int64   `json:"fanout_cells_saved,omitempty"`
	FanoutRatio      float64 `json:"fanout_ratio,omitempty"`
	// Ablation column (pegload -ablate tree): the per-viewer-circuit
	// twin run's admitted join count.
	UnicastAblationJoins int64 `json:"unicast_ablation_joins,omitempty"`

	// QoS-session scoreboard (Adaptive and CPUBound runs).
	SessionsUp       int   `json:"sessions_up"`       // sessions open at end of run
	SessionsDegraded int   `json:"sessions_degraded"` // open sessions currently below full quality
	DegradeEvents    int64 `json:"degrade_events"`    // times a session dropped a tier
	RestoreEvents    int64 `json:"restore_events"`    // times a degraded session climbed back up

	// CPU scoreboard (CPUBound runs only).
	CPURefused     int     `json:"cpu_refused"`     // session opens refused by the CPU leg
	DeadlineMisses int64   `json:"deadline_misses"` // EDF deadline overruns across all stream domains
	CPUReserved    float64 `json:"cpu_reserved"`    // worst node's reserved fraction of its CPU cap
	DiskCommitted  float64 `json:"disk_committed"`  // worst node's committed fraction of its disk budget
}

// JSON renders the scoreboard in its stable serialized form — the
// bytes `pegload -json` prints and scripted assertions parse.
func (r Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the scoreboard.
func (r Result) String() string {
	s := fmt.Sprintf(
		"pegload %s: ws=%d streams/ws=%d admitted=%d rejected=%d torndown=%d\n"+
			"  sim %.2fs: %d frames sent, %d delivered, %d cells, %d events\n"+
			"  wall %.2fs: %.2fM events/s, %.2fM cells/s\n"+
			"  latency p50=%v p99=%v max=%v\n"+
			"  jitter  p50=%v p99=%v",
		r.Config.Pattern, r.Config.Workstations, r.Config.StreamsPerWS,
		r.Admitted, r.Rejected, r.TornDown,
		r.SimSeconds, r.FramesSent, r.FramesDelivered, r.CellsDelivered, r.EventsFired,
		r.WallSeconds, r.EventsPerSec/1e6, r.CellsPerSec/1e6,
		sim.Duration(r.LatencyP50), sim.Duration(r.LatencyP99), sim.Duration(r.LatencyMax),
		sim.Duration(r.JitterP50), sim.Duration(r.JitterP99))
	if r.Config.StorageBacked() {
		s += fmt.Sprintf(
			"\n  storage: streams=%d refused=%d underruns=%d overruns=%d"+
				" streamed=%.1fMB disk-read=%.1fMB",
			r.StorageStreams, r.StorageRefused, r.Underruns, r.RoundOverruns,
			float64(r.StorageBytes)/1e6, float64(r.DiskBytesRead)/1e6)
	}
	if r.Config.CacheMB > 0 {
		s += fmt.Sprintf(
			"\n  cache: served-streams=%d hits=%d misses=%d demotions=%d served=%.1fMB",
			r.CacheServedStreams, r.CacheHits, r.CacheMisses, r.CacheDemotions,
			float64(r.CacheBytesServed)/1e6)
	}
	if r.AblationStreams > 0 {
		s += fmt.Sprintf("\n  ablation: no-cache streams=%d cached streams=%d ratio=%.2fx",
			r.AblationStreams, r.StorageStreams, r.CacheRatio)
	}
	if r.Config.Cluster {
		s += fmt.Sprintf(
			"\n  site: node-admissions=%v site-refused=%d"+
				" replicas triggered=%d completed=%d",
			r.NodeAdmissions, r.SiteRefused, r.ReplicasTriggered, r.ReplicasCompleted)
		if r.Config.FailNodeAt > 0 {
			s += fmt.Sprintf("\n  failover: recovered=%d dropped=%d",
				r.FailoverRecovered, r.FailoverDropped)
		}
	}
	if r.Config.Metro {
		s += fmt.Sprintf(
			"\n  metro: site-served=%v spilled=%d trunk-refused=%d refused=%d"+
				"\n  catalog: syncs=%d reconciled=%d cross-copies=%d",
			r.SiteServed, r.Spilled, r.TrunkRefused, r.SiteRefused,
			r.CatalogSyncs, r.CatalogReconciled, r.CrossSiteCopies)
		if r.Config.FailSiteAt > 0 {
			s += fmt.Sprintf("\n  site-failover: recovered=%d dropped=%d",
				r.SiteRecovered, r.SiteDropped)
		}
		if r.SpillAblationAdmitted > 0 {
			s += fmt.Sprintf("\n  ablation: no-spill admitted=%d spill admitted=%d",
				r.SpillAblationAdmitted, r.Admitted)
		}
	}
	if r.Config.Live {
		s += fmt.Sprintf(
			"\n  live: broadcasts=%d joins=%d leaves=%d join-refused=%d"+
				" subtree-degraded=%d subtree-restored=%d"+
				"\n  fanout: source-cells=%d saved=%d ratio=%.2fx",
			r.Broadcasts, r.LiveJoins, r.LiveLeaves, r.LiveJoinRefused,
			r.SubtreeDegraded, r.SubtreeRestored,
			r.LiveSourceCells, r.FanoutCellsSaved, r.FanoutRatio)
		if r.UnicastAblationJoins > 0 {
			s += fmt.Sprintf("\n  ablation: unicast joins=%d multicast joins=%d",
				r.UnicastAblationJoins, r.LiveJoins)
		}
	}
	if r.Config.Adaptive || r.Config.CPUBound {
		s += fmt.Sprintf(
			"\n  qos: sessions=%d degraded=%d degrade-events=%d restore-events=%d",
			r.SessionsUp, r.SessionsDegraded, r.DegradeEvents, r.RestoreEvents)
	}
	if r.Config.CPUBound {
		s += fmt.Sprintf(
			"\n  cpu: refused=%d deadline-misses=%d reserved=%.0f%% disk-committed=%.0f%%",
			r.CPURefused, r.DeadlineMisses, 100*r.CPUReserved, 100*r.DiskCommitted)
	}
	return s
}

// Frame payload header: emission timestamp + sequence + magic.
const (
	headerSize = 16
	magic      = 0x5045474c // "PEGL"
)

// frameHeader is one frame's header, applied over the payload's first
// headerSize bytes at segmentation (atm.SegmentHeader): payloads are
// read-only, since storage windows are shared with other viewers.
type frameHeader [headerSize]byte

// stamp fills the header for a frame emitted at now with sequence seq.
func (h *frameHeader) stamp(now sim.Time, seq uint32) []byte {
	binary.BigEndian.PutUint64(h[0:], uint64(now))
	binary.BigEndian.PutUint32(h[8:], seq)
	binary.BigEndian.PutUint32(h[12:], magic)
	return h[:]
}

// source is a CBR frame generator. It transmits each frame once per
// circuit in vcis: a stream's one circuit, a live channel's tree, or
// one circuit per viewer in the live unicast ablation. With cm set,
// each frame's payload is pulled from the storage read-ahead buffer
// instead of synthesized; an underrun skips the frame (counted by the
// service). A source lives on the partition of the node whose uplink
// it feeds; migrate moves it when failover rewires the stream to
// another node. A live channel's vcis and viewers are written only in
// global context by the churn engine; the tick reads them from its
// partition between barriers.
type source struct {
	sim     *sim.Sim
	out     *fabric.Link
	vcis    []atm.VCI
	period  sim.Duration
	payload []byte // synthetic frame (Scenario.synth)
	cm      *fileserver.CMStream
	hdr     frameHeader
	seq     uint32
	running bool
	chained bool
	ev      *sim.Event         // pending tick (nil between ticks)
	sent    *telemetry.Counter // partition-owned frames-sent counter (per copy)

	// Live channels only: cells transmitted, cells the switch
	// replicated for free, and the channel's current viewer count
	// (multicast) the saving derives from.
	cells, saved *telemetry.Counter
	viewers      int
}

func (s *source) start(phase sim.Duration) {
	s.running = true
	if !s.chained {
		s.chained = true
		s.ev = s.sim.After(phase, s.tick)
	}
}

func (s *source) stop() { s.running = false }

// migrate rebinds the source to another partition's timeline (the node
// a failover re-admitted the stream on). Global context only: the
// pending tick on the old partition is cancelled, so no event chain
// survives on a timeline the source no longer belongs to.
func (s *source) migrate(to *sim.Sim, sent *telemetry.Counter) {
	if s.ev != nil {
		s.sim.Cancel(s.ev)
		s.ev = nil
		s.chained = false
	}
	s.sim = to
	s.sent = sent
}

func (s *source) tick() {
	s.ev = nil
	if !s.running {
		s.chained = false
		return
	}
	payload := s.payload
	if s.cm != nil {
		data, ok := s.cm.NextFrame()
		if !ok {
			s.ev = s.sim.After(s.period, s.tick)
			return
		}
		payload = data
	}
	hdr := s.hdr.stamp(s.sim.Now(), s.seq)
	s.seq++
	for _, vci := range s.vcis {
		cells, err := atm.SegmentHeader(vci, devices.UUData, hdr, payload)
		if err != nil {
			panic(fmt.Sprintf("loadgen: unsegmentable frame: %v", err))
		}
		s.out.SendBurst(cells)
		s.sent.Inc()
		if s.cells != nil {
			s.cells.Add(int64(len(cells)))
			if s.viewers > 1 {
				// The tree carries one copy; the switch manufactures the
				// other viewers-1 for free. The unicast ablation never sets
				// viewers, so its saved column is honestly zero.
				s.saved.Add(int64(s.viewers-1) * int64(len(cells)))
			}
		}
	}
	s.ev = s.sim.After(s.period, s.tick)
}

// sink measures one stream leg at its receiving endpoint. It is
// burst-aware (one callback per frame on the fast path) and falls back
// to per-cell reassembly bookkeeping in cell-accurate mode; both paths
// observe identical frame-completion times. A sink runs on its viewer's
// partition and counts into that partition's registry shard.
type sink struct {
	sim    *sim.Sim
	tl     *traffic
	period sim.Duration

	haveLast sim.Time
	started  bool

	// cell-accurate reassembly state: emission stamp of the frame in
	// progress (cells arrive in order on a VC).
	midFrame bool
	stamp    sim.Time
	cells    int
}

func (k *sink) frameDone(stamp sim.Time, ncells int) {
	now := k.sim.Now()
	k.tl.framesDelivered.Inc()
	k.tl.cellsDelivered.Add(int64(ncells))
	k.tl.latency.Add(float64(now - stamp))
	if k.started {
		j := float64((now - k.haveLast) - k.period)
		if j < 0 {
			j = -j
		}
		k.tl.jitter.Add(j)
	}
	k.started = true
	k.haveLast = now
}

// HandleBurst scores a whole frame delivered on the batched fast path.
func (k *sink) HandleBurst(b fabric.Burst) {
	stamp := sim.Time(binary.BigEndian.Uint64(b.Cells[0].Payload[0:]))
	k.frameDone(stamp, len(b.Cells))
}

// HandleCell reassembles cell-accurate deliveries, scoring the frame
// when its end-of-frame cell arrives.
func (k *sink) HandleCell(c atm.Cell) {
	if !k.midFrame {
		k.stamp = sim.Time(binary.BigEndian.Uint64(c.Payload[0:]))
		k.midFrame = true
		k.cells = 0
	}
	k.cells++
	if c.EndOfFrame() {
		k.midFrame = false
		k.frameDone(k.stamp, k.cells)
	}
}

// Stream is one admitted stream: a source endpoint, one or more
// destination legs, and the core.Session owning the admission state to
// tear it down and re-admit it (churn).
type Stream struct {
	sc    *Scenario
	src   *source
	from  *core.Endpoint
	dsts  []*core.Endpoint
	sess  *core.Session
	phase sim.Duration

	// Storage-backed streams: the serving node and the title it plays.
	server *core.StorageServer
	title  string
}

// Down reports whether the stream is currently torn down.
func (st *Stream) Down() bool { return st.sess == nil }

// Session exposes the stream's session (nil while down).
func (st *Stream) Session() *core.Session { return st.sess }

// VCI reports the stream's current circuit number (0 when down).
func (st *Stream) VCI() atm.VCI {
	if st.sess == nil {
		return 0
	}
	return st.sess.VCI()
}

// Stop tears the stream down end to end: the source stops emitting, the
// session closes (freeing its admitted rate, disk reservation and
// switch routes) and every destination demux registration is removed.
func (st *Stream) Stop() error {
	if st.sess == nil {
		return nil
	}
	st.src.stop()
	st.src.cm = nil
	vci := st.sess.VCI()
	if err := st.sess.Close(); err != nil {
		return err
	}
	st.sess = nil
	for _, d := range st.dsts {
		d.Demux.Unregister(vci)
	}
	st.sc.tornDown++
	return nil
}

// establish admits the stream's session and wires its sinks, without
// starting the source.
func (st *Stream) establish() error {
	if st.sess != nil {
		return nil
	}
	ports := make([]int, len(st.dsts))
	for i, d := range st.dsts {
		ports[i] = d.Port
	}
	// End-to-end admission is a conjunction: the links must say yes AND,
	// for storage-backed titles, the disk heads too. OpenSession holds
	// nothing on refusal by either half.
	spec := core.SessionSpec{
		Class:    core.Guaranteed,
		InPort:   st.from.Port,
		OutPorts: ports,
		PeakRate: st.sc.cfg.PeakRate,
	}
	if cfg := st.sc.cfg; cfg.Adaptive && !cfg.GuaranteedOnly {
		spec.Class = core.Adaptive
	}
	if st.title != "" {
		spec.CM = st.server.CM
		spec.Title = st.title
		spec.FrameBytes = st.sc.cfg.FrameBytes
		spec.FrameHz = st.sc.cfg.FrameHz
		// A degraded frame still carries the timestamp header: keep the
		// floor tier at or above headerSize bytes per frame.
		if f := float64(headerSize) / float64(spec.FrameBytes); f > core.DefaultMinRateFrac {
			spec.MinRateFrac = f
		}
	}
	if st.server != nil {
		// nil unless the scenario enabled CPU admission on the node.
		spec.CPU = st.server.CPU
	}
	sess, err := st.sc.site.OpenSession(spec)
	if err != nil {
		if errors.Is(err, fileserver.ErrBadStream) || errors.Is(err, fileserver.ErrBadRound) {
			// Not a bandwidth refusal but a scenario bug (ragged title, bad
			// round/Hz): counting it as a refusal would let a
			// misconfiguration impersonate the over-subscription proof.
			panic(fmt.Sprintf("loadgen: title %s not servable: %v", st.title, err))
		}
		// The site's per-leg refusal stats (QoSStats.RefusedLeg, keyed by
		// core.RefusalLeg — the single taxonomy) are the scoreboard's
		// source for disk and CPU refusals; link and uplink refusals
		// additionally count every rejected leg here.
		if leg, ok := core.RefusalLeg(err); !ok ||
			(leg != core.LegDisk && leg != core.LegCPU) {
			st.sc.rejected += len(ports)
		}
		return err
	}
	if h := sess.CM(); h != nil {
		st.src.cm = h
		h.OnReady(func() {
			if st.sess == sess {
				st.src.start(st.phase)
			}
		})
	}
	st.sess = sess
	for _, d := range st.dsts {
		d.Demux.Register(sess.VCI(), &sink{sim: d.Sim, tl: st.sc.trafficFor(d.Sim), period: st.src.period})
	}
	st.sc.admitted += len(ports)
	st.src.vcis = append(st.src.vcis[:0], sess.VCI())
	return nil
}

// Restart re-admits a stopped stream: a fresh session (new VCI) through
// admission control — link and, for storage-backed streams, disk — new
// demux registrations, and the source resumes (storage-backed sources
// wait for their first read-ahead window).
func (st *Stream) Restart() error {
	if err := st.establish(); err != nil {
		return err
	}
	if st.src.cm == nil || st.src.cm.Ready() {
		st.src.start(st.phase)
	}
	return nil
}

// Scenario is a built site plus its admitted streams, ready to run.
type Scenario struct {
	cfg   Config
	topo  *topology
	site  *core.Site
	plane *core.Plane // the site's, or the federation's in Metro mode

	// Servers are the VoD storage nodes (nil for mesh).
	Servers []*core.StorageServer

	streams []*Stream
	synth   []byte // the all-zero frame sources without storage send, shared read-only

	// Viewer-request state (cluster and metro): the site or federation
	// controller, every request, and the requests no replica could
	// carry (retried when new capacity lands).
	ctrl     *vodsite.Controller
	metroCtl *metro.Controller
	requests []*request
	pending  []*request

	// Live-mode state: the on-air channels, the viewer endpoints the
	// churn joins on, and the pre-sampled churn schedule.
	channels    []*liveChannel
	liveViewers []*core.Endpoint
	livePlan    []liveJoinPlan

	admitted, rejected, tornDown int
	traffics                     []*traffic
	sampler                      *telemetry.Sampler
	runStart                     sim.Time
	firedStart                   int64
	ticksStart                   int64
}

// traffic is one partition's share of the frame scoreboard, now a view
// over the site's metrics registry: the handles resolve to the shard of
// the partition the sources and sinks run on, so hot-path counting
// stays single-writer and collect reads the merged totals after the
// run.
type traffic struct {
	sim             *sim.Sim
	framesSent      *telemetry.Counter
	framesDelivered *telemetry.Counter
	cellsDelivered  *telemetry.Counter
	latency, jitter *stats.Sample
}

func trafficKey(name string) telemetry.Key {
	return telemetry.Key{Node: "loadgen", Subsystem: "traffic", Name: name}
}

// trafficFor returns (creating on first use) the registry handles for a
// partition's timeline. Global context only; the handful of partitions
// makes the linear scan irrelevant.
func (sc *Scenario) trafficFor(s *sim.Sim) *traffic {
	for _, t := range sc.traffics {
		if t.sim == s {
			return t
		}
	}
	reg, p := sc.plane.Metrics, s.Partition()
	t := &traffic{
		sim:             s,
		framesSent:      reg.Counter(p, trafficKey("frames_sent")),
		framesDelivered: reg.Counter(p, trafficKey("frames_delivered")),
		cellsDelivered:  reg.Counter(p, trafficKey("cells_delivered")),
		latency:         reg.Sample(p, trafficKey("latency_ns")),
		jitter:          reg.Sample(p, trafficKey("jitter_ns")),
	}
	sc.traffics = append(sc.traffics, t)
	return t
}

// framesDeliveredTotal sums delivered frames across partitions (for
// tests probing mid-run progress). Quiescent context only.
func (sc *Scenario) framesDeliveredTotal() int64 {
	return sc.plane.Metrics.CounterValue(trafficKey("frames_delivered"))
}

// Site exposes the underlying site (switch, signalling) for assertions.
func (sc *Scenario) Site() *core.Site { return sc.site }

// siteConfig is the site geometry every topology shares.
func (sc *Scenario) siteConfig(ports int) core.SiteConfig {
	c := core.DefaultSiteConfig()
	c.LinkRate = sc.cfg.LinkRate
	c.CellAccurate = sc.cfg.CellAccurate
	c.Ports = ports
	c.Partitions = sc.cfg.Partitions
	if sc.cfg.FastDisks {
		// Flash-era mechanics: microsecond repositioning, 500 MB/s media
		// rate. With the 1994 drive, AvgPosition ≈ 12.6 ms caps a node at
		// ~50 streams/round; this lifts the ceiling three orders of
		// magnitude for 100k-session runs.
		c.DiskParams = &disk.Params{
			SeekMin: 20 * sim.Microsecond,
			SeekMax: 50 * sim.Microsecond,
			RotHalf: 25 * sim.Microsecond,
			Rate:    500_000_000,
		}
	}
	return c
}

// attachSite builds the scenario's site, switching session tracing on
// before any admission so build-time refusals land in the trace.
func (sc *Scenario) attachSite(ports int) {
	sc.site = core.NewSite(sc.siteConfig(ports))
	sc.plane = sc.site.Plane
	if sc.cfg.Trace {
		sc.plane.EnableTrace()
	}
}

// attachViewers attaches one viewer endpoint per workstation to site.
func (sc *Scenario) attachViewers(site *core.Site) []*core.Endpoint {
	viewers := make([]*core.Endpoint, sc.cfg.Workstations)
	for i := range viewers {
		viewers[i] = site.Attach(fmt.Sprintf("viewer%d", i))
	}
	return viewers
}

// WriteMetrics emits the sampled time series as columnar JSON. Call
// after Run; requires Config.MetricsEvery > 0.
func (sc *Scenario) WriteMetrics(w io.Writer) error {
	if sc.sampler == nil {
		return errors.New("loadgen: metrics sampling not enabled (Config.MetricsEvery)")
	}
	return sc.sampler.WriteJSON(w)
}

// WriteTrace emits the per-session lifecycle trace as JSON lines. Call
// after Run; requires Config.Trace.
func (sc *Scenario) WriteTrace(w io.Writer) error {
	tr := sc.plane.Tracer()
	if tr == nil {
		return errors.New("loadgen: tracing not enabled (Config.Trace)")
	}
	return tr.WriteJSONL(w)
}

// Streams exposes the admitted streams for churn driving.
func (sc *Scenario) Streams() []*Stream { return sc.streams }

// Build constructs the site, admits every stream through signalling and
// wires sources and measuring sinks. Sources are not yet started. A
// Config that fails Validate is a programming error: Build panics.
func Build(cfg Config) *Scenario {
	t, err := cfg.validate()
	if err != nil {
		panic(err)
	}
	cfg.setDefaults(t)
	sc := &Scenario{cfg: cfg, topo: t, synth: make([]byte, cfg.FrameBytes)}
	t.build(sc)
	return sc
}

// buildMesh wires the videophone pattern: every workstation sends M
// streams to M distinct peers.
func (sc *Scenario) buildMesh() {
	n, m := sc.cfg.Workstations, sc.cfg.StreamsPerWS
	sc.attachSite(2 * n)
	srcEPs := make([]*core.Endpoint, n)
	dstEPs := make([]*core.Endpoint, n)
	for i := 0; i < n; i++ {
		srcEPs[i] = sc.site.Attach(fmt.Sprintf("ws%d.cam", i))
		dstEPs[i] = sc.site.Attach(fmt.Sprintf("ws%d.disp", i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			peer := (i + 1 + j%max(n-1, 1)) % n
			sc.addStream(srcEPs[i], []*core.Endpoint{dstEPs[peer]}, i*m+j).establish()
		}
	}
}

// buildVoD wires the fan-out pattern: each server publishes M titles,
// every viewer subscribes to M titles spread across the catalogue, and
// the switch fans each title's single transmission out to its
// subscribers. FromStorage serves the titles off the disks.
func (sc *Scenario) buildVoD() {
	cfg := sc.cfg
	n, m := cfg.Workstations, cfg.StreamsPerWS
	sc.attachSite(n + cfg.Servers)
	viewers := sc.attachViewers(sc.site)
	titles := cfg.Servers * m
	if cfg.FromStorage {
		sc.addServers(sc.site, "vod", cfg.Servers, m, 256<<10, 8)
		sc.preloadTitles(titles)
	} else {
		sc.addServers(sc.site, "vod", cfg.Servers, 0, 64<<10, 64) // a toy array
	}
	subs := make([][]*core.Endpoint, titles)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			t := (i*m + j) % titles
			subs[t] = append(subs[t], viewers[i])
		}
	}
	for t, legs := range subs {
		if len(legs) == 0 {
			continue
		}
		if ss := sc.Servers[t%cfg.Servers]; cfg.FromStorage {
			sc.serveTitle(ss, t, legs, t)
		} else {
			sc.addStream(ss.Net, legs, t).establish()
		}
	}
}

func titleName(t int) string { return fmt.Sprintf("title%d", t) }

// titleBytes is one stored title's length: TitleRounds rounds of frames.
func (c *Config) titleBytes() int64 {
	framesPerRound := int64(c.FrameHz) * int64(c.Round) / int64(sim.Second)
	return int64(c.TitleRounds) * framesPerRound * int64(c.FrameBytes)
}

// addServers attaches n storage servers named prefix0, prefix1, … to
// site and appends them to Servers. Each log holds titles titles in
// segSize-byte segments, plus spare segments.
func (sc *Scenario) addServers(site *core.Site, prefix string, n, titles int, segSize, spare int64) []*core.StorageServer {
	perTitle := (sc.cfg.titleBytes()+segSize-1)/segSize + 1
	added := make([]*core.StorageServer, n)
	for s := range added {
		added[s] = site.NewStorageServer(fmt.Sprintf("%s%d", prefix, s), int(segSize), int64(titles)*perTitle+spare)
	}
	sc.Servers = append(sc.Servers, added...)
	return added
}

// serveTitle wires a stream of title t from server ss to dsts and
// admits it: links and disks both.
func (sc *Scenario) serveTitle(ss *core.StorageServer, t int, dsts []*core.Endpoint, idx int) {
	st := sc.addStream(ss.Net, dsts, idx)
	st.server = ss
	st.title = titleName(t)
	st.establish()
}

// preloadTitles formats every title onto its server's disk array and
// starts the serving services. The writes take the ordinary service
// path (fileserver → lfs → raid), the log is synced so the data is on
// the platters — not in open segments — and the simulator is drained
// before the measured run begins.
func (sc *Scenario) preloadTitles(titles int) {
	titleBytes := sc.cfg.titleBytes()
	chunk := make([]byte, 64<<10)
	for i := range chunk {
		chunk[i] = byte(i * 17)
	}
	for t := 0; t < titles; t++ {
		ss := sc.Servers[t%sc.cfg.Servers]
		name := titleName(t)
		if err := ss.Server.Create(name, true); err != nil {
			panic(fmt.Sprintf("loadgen: preload %s: %v", name, err))
		}
		for off := int64(0); off < titleBytes; off += int64(len(chunk)) {
			n := min(int64(len(chunk)), titleBytes-off)
			if err := ss.Server.Write(name, off, chunk[:n]); err != nil {
				panic(fmt.Sprintf("loadgen: preload %s: %v", name, err))
			}
		}
	}
	for _, ss := range sc.Servers {
		ss.Server.FS().Sync(func(err error) {
			if err != nil {
				panic(fmt.Sprintf("loadgen: preload sync: %v", err))
			}
		})
	}
	// Drain the preload I/O; nothing periodic is running yet, so the
	// event queue empties. The CM schedulers start only after this.
	sc.site.Clock.Run()
	for _, ss := range sc.Servers {
		ss.EnableCM(sc.cmConfig())
	}
}

// cmConfig is every serving node's continuous-media service setup.
func (sc *Scenario) cmConfig() fileserver.CMConfig {
	return fileserver.CMConfig{Round: sc.cfg.Round, CacheBytes: int64(sc.cfg.CacheMB) << 20}
}

// addStream wires one stream (possibly multi-leaf); the caller
// completes any storage binding and then calls establish.
func (sc *Scenario) addStream(from *core.Endpoint, dsts []*core.Endpoint, idx int) *Stream {
	period := sim.Second / sim.Duration(sc.cfg.FrameHz)
	st := &Stream{
		sc:   sc,
		from: from,
		dsts: dsts,
		// Spread stream phases deterministically across the frame period
		// so the site doesn't emit every frame on the same instant.
		phase: sim.Duration(int64(idx)*7919) % period,
		src:   sc.newSource(from.Sim, from.ToSwitch, period),
	}
	sc.streams = append(sc.streams, st)
	return st
}

// newSource returns a synthetic-frame source on s's timeline feeding
// out.
func (sc *Scenario) newSource(s *sim.Sim, out *fabric.Link, period sim.Duration) *source {
	return &source{sim: s, out: out, period: period, payload: sc.synth, sent: sc.trafficFor(s).framesSent}
}

// Run starts every admitted source, advances the simulation by the
// configured duration and returns the scoreboard. Storage-backed
// sources start themselves when their first read-ahead window is
// buffered (one scheduler round into the run).
func (sc *Scenario) Run() Result {
	for _, st := range sc.streams {
		if st.sess != nil && st.src.cm == nil {
			st.src.start(st.phase)
		}
	}
	// The topology's churn, release, retry and failure schedules are
	// control-plane verbs that touch many partitions' state: they run
	// in global (barrier) context.
	if sc.topo.start != nil {
		sc.topo.start(sc)
	}
	// A chained sampler's tick firings are subtracted back out of
	// EventsFired by collect.
	if sc.cfg.MetricsEvery > 0 && sc.sampler == nil {
		sc.sampler = sc.plane.Sampler(sc.cfg.MetricsEvery)
	}
	sc.runStart = sc.plane.Clock.Now()
	sc.firedStart = sc.plane.Clock.Fired()
	if sc.sampler != nil {
		sc.ticksStart = sc.sampler.Ticks()
	}
	wall := time.Now()
	sc.plane.Clock.RunFor(sc.cfg.Duration)
	if sc.sampler != nil {
		sc.sampler.Final(sc.plane.Clock.Now())
	}
	return sc.collect(time.Since(wall))
}

// modulo is i mod n in [0, n): Go's % keeps the dividend's sign.
func modulo(i, n int) int { return (i%n + n) % n }

func (sc *Scenario) collect(wall time.Duration) Result {
	// The scoreboard is a view over the registry: merge the per-shard
	// counters and samples. Quantiles sort the merged sample, so the
	// result is independent of merge order. A chained sampler's own
	// tick events are subtracted back out of the events-fired score so
	// telemetry on vs off yields byte-identical scoreboards.
	latency := sc.plane.Metrics.MergedSample(trafficKey("latency_ns"))
	jitter := sc.plane.Metrics.MergedSample(trafficKey("jitter_ns"))
	var ticks int64
	if sc.sampler != nil {
		ticks = sc.sampler.Ticks() - sc.ticksStart
	}
	r := Result{
		Config:          sc.cfg,
		Admitted:        sc.admitted,
		Rejected:        sc.rejected,
		TornDown:        sc.tornDown,
		FramesSent:      sc.plane.Metrics.CounterValue(trafficKey("frames_sent")),
		FramesDelivered: sc.plane.Metrics.CounterValue(trafficKey("frames_delivered")),
		CellsDelivered:  sc.plane.Metrics.CounterValue(trafficKey("cells_delivered")),
		EventsFired:     sc.plane.Clock.Fired() - sc.firedStart - ticks,
		SimSeconds:      (sc.plane.Clock.Now() - sc.runStart).Seconds(),
		WallSeconds:     wall.Seconds(),
		LatencyP50:      latency.Quantile(0.5),
		LatencyP99:      latency.Quantile(0.99),
		LatencyMax:      latency.Max(),
		JitterP50:       jitter.Quantile(0.5),
		JitterP99:       jitter.Quantile(0.99),
	}
	if r.WallSeconds > 0 {
		r.EventsPerSec = float64(r.EventsFired) / r.WallSeconds
		r.CellsPerSec = float64(r.CellsDelivered) / r.WallSeconds
	}
	if sc.topo.open == nil {
		// One source of truth: the site counts refusals by the same
		// core.RefusalLeg taxonomy the trace events carry. Viewer-request
		// topologies admit through per-node selection probes instead of
		// OpenSession refusals, so they read the CM stats below.
		r.StorageRefused = int(sc.site.QoSStats.RefusedLeg[core.LegDisk])
	}
	for _, st := range sc.streams {
		if st.sess != nil && st.sess.CM() != nil {
			r.StorageStreams++
			if st.sess.CacheServed() {
				r.CacheServedStreams++
			}
		}
	}
	for _, req := range sc.requests {
		if req.sess != nil && !req.sess.Closed() {
			r.StorageStreams++
			if cm := req.sess.CM(); cm != nil && cm.CacheServed() {
				r.CacheServedStreams++
			}
		}
	}
	for _, ss := range sc.Servers {
		if ss.CM == nil {
			continue // synthesized VoD: the disks serve nothing
		}
		if sc.topo.open != nil {
			r.StorageRefused += int(ss.CM.Stats.Refused)
		}
		r.RoundOverruns += ss.CM.Stats.RoundOverruns
		r.Underruns += ss.CM.Stats.Underruns
		r.StorageBytes += ss.CM.Stats.BytesStreamed
		r.CacheHits += ss.CM.Stats.CacheHits
		r.CacheMisses += ss.CM.Stats.CacheMisses
		r.CacheDemotions += ss.CM.Stats.CacheDemotions
		r.CacheBytesServed += ss.CM.Stats.CacheBytesServed
		arr := ss.Server.FS().Array()
		for i := 0; i < raid.TotalDisks; i++ {
			r.DiskBytesRead += arr.Disk(i).Stats.BytesRead
		}
	}
	if sc.topo.collect != nil {
		sc.topo.collect(sc, &r)
	}
	return r
}
