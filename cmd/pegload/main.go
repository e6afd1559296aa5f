// Command pegload runs the site-scale load generator and prints the
// scaling scoreboard: admitted streams, events/sec, cells/sec and
// latency/jitter percentiles. It is the fixture every performance PR is
// measured against.
//
// Examples:
//
//	pegload                                   # 50 ws × 10 streams, 10 s
//	pegload -pattern vod -ws 64 -streams 8
//	pegload -from-storage -ws 100 -streams 25 -servers 4
//	pegload -cluster -ws 24 -streams 2 -servers 4 -titles 8 -zipf 1.6
//	pegload -cluster -base-replicas 2 -fail-node-at 3 -fail-node 0
//	pegload -cluster -partitions 4 -ws 64 -streams 4  # sharded kernel, one goroutine per core
//	pegload -metro -sites 3 -site-replicas 2 -ablate spill  # federated sites, flash crowd on site 0
//	pegload -cluster -servers 2 -ws 16 -streams 8 -cache-mb 64 -ablate cache -min-ratio 2
//	pegload -adaptive -ws 6 -streams 2 -seconds 4 -expect-degraded
//	pegload -cell-accurate -ws 8 -seconds 1   # exact per-cell model
//	pegload -json
//
// The topology flags (-pattern, -from-storage, -cluster, -metro, -live,
// -adaptive, -cpu-bound) pick one row of loadgen's scenario table; a
// flag that row does not read, or a second topology, is an error (exit
// 2) before anything runs. -ablate runs the row's named twin first —
// the same scenario with one mechanism off — and reports it in the
// scoreboard's ablation column.
//
// With -check, pegload exits non-zero unless the run actually proved
// something: streams admitted, frames delivered, zero buffer underruns
// among admitted streams, disks read for storage-backed runs, and a
// measured run strictly ahead of its -ablate twin. CI runs the
// scoreboard this way so a silently-degenerate run fails the build.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"

	"repro/internal/loadgen"
	"repro/internal/sim"
)

// seconds is a sim.Duration flag given in seconds, rounded to the
// nearest nanosecond: 0.3 s must mean exactly 30 frame periods, not
// 299999999 ns (which Validate would reject as a ragged round).
type seconds sim.Duration

func (s *seconds) String() string {
	return strconv.FormatFloat(float64(*s)/float64(sim.Second), 'g', -1, 64)
}

func (s *seconds) Set(v string) error {
	f, err := strconv.ParseFloat(v, 64)
	*s = seconds(math.Round(f * float64(sim.Second)))
	return err
}

func secondsVar(d *sim.Duration, name string, def float64, usage string) {
	*d = sim.Duration(math.Round(def * float64(sim.Second)))
	flag.Var((*seconds)(d), name, usage)
}

func main() {
	var cfg loadgen.Config
	flag.IntVar(&cfg.Workstations, "ws", 50, "workstations")
	flag.IntVar(&cfg.StreamsPerWS, "streams", 10, "streams admitted per workstation")
	flag.IntVar(&cfg.Servers, "servers", 0, "VoD storage servers (0 = auto)")
	secondsVar(&cfg.Duration, "seconds", 10, "simulated seconds")
	flag.IntVar(&cfg.FrameBytes, "bytes", 0, "AAL5 payload bytes per frame (0 = mode default: 960; 19200 adaptive)")
	flag.IntVar(&cfg.FrameHz, "hz", 100, "frames per second per stream")
	flag.Int64Var(&cfg.PeakRate, "rate", 0, "admitted peak bits/s per stream (0 = auto)")
	flag.Int64Var(&cfg.LinkRate, "linkrate", 0, "link bit rate (0 = 100 Mb/s)")
	flag.BoolVar(&cfg.CellAccurate, "cell-accurate", false,
		"disable the batched fabric fast path (exact per-cell model; ~20x more events)")
	flag.BoolVar(&cfg.FromStorage, "from-storage", false,
		"serve VoD titles from the servers' disk arrays through the CM round scheduler "+
			"(admission = links AND disks); implies -pattern vod")
	secondsVar(&cfg.Round, "round", 0,
		"storage scheduler round in seconds (0 = mode default: 2 from-storage, 1 cluster)")
	flag.IntVar(&cfg.TitleRounds, "title-rounds", 4,
		"stored title length in rounds; playout loops (storage-backed modes)")
	flag.BoolVar(&cfg.Cluster, "cluster", false,
		"run the multi-server VoD site: -servers nodes under the vodsite controller, "+
			"Zipf title requests admitted on whichever replica has room, reactive replication")
	flag.IntVar(&cfg.Partitions, "partitions", 0,
		"shard the event kernel across this many conservative-lookahead partitions, one "+
			"goroutine each (-cluster, -metro or -live; 0 = serial kernel; 1 = cluster machinery, "+
			"bit-identical to serial; N>1 deterministic per N)")
	flag.BoolVar(&cfg.FastDisks, "fast-disks", false,
		"flash-era disk mechanics instead of the 1994 drive (-cluster, -metro); "+
			"lifts per-node stream ceilings from tens to tens of thousands")
	flag.BoolVar(&cfg.Adaptive, "adaptive", false,
		"run the degrade-instead-of-refuse scenario: unicast disk-backed streams opened "+
			"as Adaptive-class sessions; an over-subscribed site scales sessions down the "+
			"tier ladder instead of refusing and restores them as capacity frees")
	flag.BoolVar(&cfg.GuaranteedOnly, "guaranteed-only", false,
		"force every -adaptive session to the Guaranteed class (the admit-or-refuse ablation)")
	flag.BoolVar(&cfg.CPUBound, "cpu-bound", false,
		"run the CPU-constrained scenario: unicast disk-backed streams with per-node "+
			"Nemesis CPU admission (small per-stream rates, high per-stream CPU cost), so "+
			"admission is the full link AND disk AND cpu conjunction and the processor "+
			"refuses/degrades strictly before the disks fill; combine with -adaptive for "+
			"degrade-instead-of-refuse on CPU")
	flag.Int64Var(&cfg.CPUBytesPerSec, "cpu-throughput", 0,
		"node protocol-processing throughput in bytes/s for -cpu-bound (0 = 1 MiB/s)")
	secondsVar(&cfg.ReleaseAt, "release-at", 0,
		"seconds into an -adaptive run to close every third stream (0 = half the run)")
	flag.IntVar(&cfg.Titles, "titles", 0, "cluster catalog size (0 = 2x servers)")
	flag.Float64Var(&cfg.ZipfS, "zipf", 0, "cluster Zipf popularity exponent (0 = 1.3)")
	flag.Int64Var(&cfg.Seed, "seed", 0, "cluster request-sampling seed (0 = 1)")
	flag.IntVar(&cfg.BaseReplicas, "base-replicas", 0, "initial replicas per title (0 = 1)")
	flag.IntVar(&cfg.RefusalThreshold, "refusal-threshold", 0,
		"title refusals before reactive replication (0 = 3)")
	flag.IntVar(&cfg.MaxReplicas, "max-replicas", 0, "replica cap per title (0 = every node)")
	flag.BoolVar(&cfg.ReplicationDisabled, "no-replication", false,
		"disable reactive replication (the hot-title ablation)")
	secondsVar(&cfg.FailNodeAt, "fail-node-at", 0,
		"seconds into the run to tear one node down (0 = never)")
	flag.IntVar(&cfg.FailNode, "fail-node", 0, "node to tear down with -fail-node-at")
	flag.BoolVar(&cfg.Metro, "metro", false,
		"federate -sites vodsite sites behind a two-tier fabric and home every "+
			"viewer on site 0 (the flash crowd): requests the home site cannot "+
			"carry spill across the core switch to neighbor sites, with the "+
			"inter-site trunk as an explicit admission leg")
	flag.IntVar(&cfg.Sites, "sites", 0, "metro federation size (0 = 3)")
	flag.IntVar(&cfg.SiteReplicas, "site-replicas", 0,
		"sites holding each title's bytes (0 = 2, capped at -sites)")
	flag.Int64Var(&cfg.TrunkRate, "trunk-rate", 0,
		"per-direction inter-site trunk bits/s (0 = 4x link rate)")
	flag.BoolVar(&cfg.NoSpill, "no-spill", false,
		"disable cross-site spill admission (the single-site ablation): "+
			"home-site refusals are final")
	flag.IntVar(&cfg.SpillThreshold, "spill-threshold", 0,
		"title spill pressure before a lazy cross-site copy (0 = 4, <0 = never copy)")
	secondsVar(&cfg.FailSiteAt, "fail-site-at", 0,
		"seconds into a -metro run to fail one whole site (0 = never)")
	flag.IntVar(&cfg.FailSite, "fail-site", 0, "site to fail with -fail-site-at")
	flag.BoolVar(&cfg.Live, "live", false,
		"run the live-broadcast flash crowd: -channels switch-level multicast "+
			"channels, Zipf-popularity viewer join/leave churn with exponential hold "+
			"times, and -vod-streams disk-backed Guaranteed VoD sessions sharing the "+
			"viewer links; a join the link budget refuses degrades that channel's "+
			"subtree down the tier ladder instead of refusing")
	flag.IntVar(&cfg.Channels, "channels", 0, "live channels on the air (0 = 4)")
	secondsVar(&cfg.HoldMean, "hold-mean", 0,
		"mean viewer hold time in seconds for -live (0 = a quarter of the run)")
	flag.IntVar(&cfg.VodStreams, "vod-streams", 0,
		"background disk-backed VoD sessions in a -live run (0 = ws/2, negative = none)")
	flag.IntVar(&cfg.CacheMB, "cache-mb", 0,
		"per-node RAM buffer tier in MiB (storage-backed modes; 0 = no cache): a "+
			"request trailing another viewer of the same title is served from the "+
			"leader's wake in memory, charging no disk round budget")
	var metricsEvery sim.Duration
	secondsVar(&metricsEvery, "metrics-every", 0.5,
		"sim-time sampling cadence in seconds for -metrics-out")
	var (
		pattern     = flag.String("pattern", "mesh", "traffic pattern: mesh | vod")
		expectJoins = flag.Bool("expect-joins", false,
			"exit 1 unless at least one live viewer was admitted (live)")
		expectSubtreeDegraded = flag.Bool("expect-subtree-degraded", false,
			"exit 1 unless at least one channel subtree dropped a tier under join "+
				"pressure instead of refusing (live)")
		minFanoutRatio = flag.Float64("min-fanout-ratio", 0,
			"exit 1 unless delivered copies per transmitted copy reached this "+
				"multiple (live; 1.0 means the switch saved nothing)")
		ablate = flag.String("ablate", "",
			"run the identical scenario first with one mechanism off — cache (RAM tier; "+
				"streams held), spill (cross-site admission; sessions admitted) or tree "+
				"(live multicast; joins admitted) — and report the twin's count; with "+
				"-check the measured run must beat it strictly")
		minRatio = flag.Float64("min-ratio", 0,
			"exit 1 unless the measured run reached this multiple of its -ablate twin's count")
		check = flag.Bool("check", false,
			"exit 1 unless streams were admitted, frames delivered, no storage buffer "+
				"underruns occurred, and the run beat its -ablate twin")
		minStorage = flag.Int("min-storage-streams", 0,
			"exit 1 unless at least this many disk-backed streams are up")
		expectRefusals = flag.Bool("expect-storage-refusals", false,
			"exit 1 unless storage admission refused at least one title (over-subscription proof)")
		minActiveNodes = flag.Int("min-active-nodes", 0,
			"exit 1 unless at least this many nodes admitted streams (cluster)")
		expectReplication = flag.Bool("expect-replication", false,
			"exit 1 unless at least one reactive replication completed (cluster)")
		expectRecovered = flag.Bool("expect-recovered", false,
			"exit 1 unless node failure recovered at least one stream (cluster)")
		expectSpilled = flag.Bool("expect-spilled", false,
			"exit 1 unless at least one session was admitted cross-site (metro)")
		expectSiteRecovered = flag.Bool("expect-site-recovered", false,
			"exit 1 unless the site failure re-admitted at least one session on survivors (metro)")
		minActiveSites = flag.Int("min-active-sites", 0,
			"exit 1 unless at least this many sites are serving sessions at the end (metro)")
		expectDegraded = flag.Bool("expect-degraded", false,
			"exit 1 unless at least one session dropped a quality tier (adaptive)")
		expectRestored = flag.Bool("expect-restored", false,
			"exit 1 unless at least one degraded session climbed back up (adaptive)")
		expectCPURefusals = flag.Bool("expect-cpu-refusals", false,
			"exit 1 unless the CPU leg refused at least one open while the disks still had "+
				"room and no disk refusal occurred (the cpu-bound over-subscription proof)")
		asJSON     = flag.Bool("json", false, "emit the scoreboard as JSON")
		metricsOut = flag.String("metrics-out", "",
			"write the telemetry time series (columnar JSON, one values column per "+
				"metric on a shared t_ns axis) to this file")
		traceOut = flag.String("trace-out", "",
			"write the per-session lifecycle trace (JSON lines: open/admitted/refused/"+
				"degrade/restore/cache-served/demoted/underrun/close, with per-leg "+
				"admission headrooms) to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()

	cfg.Trace = *traceOut != ""
	if *metricsOut != "" {
		cfg.MetricsEvery = metricsEvery
		if cfg.MetricsEvery <= 0 {
			die(2, "-metrics-every must be positive with -metrics-out")
		}
	}
	switch *pattern {
	case "mesh":
		cfg.Pattern = loadgen.Mesh
	case "vod":
		cfg.Pattern = loadgen.VoD
	default:
		die(2, fmt.Sprintf("unknown pattern %q", *pattern))
	}
	if err := cfg.Validate(); err != nil {
		die(2, err)
	}
	var twin loadgen.Result
	if *ablate != "" {
		tcfg, err := cfg.Twin(*ablate)
		if err != nil {
			die(2, err)
		}
		twin = loadgen.Build(tcfg).Run()
	} else if *minRatio > 0 {
		die(2, "-min-ratio requires -ablate (nothing to compare against)")
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			die(1, "cpuprofile:", err)
		}
		defer f.Close()
	}
	sc := loadgen.Build(cfg)
	res := sc.Run()
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	writeOut := func(path, what string, emit func(io.Writer) error) {
		f, err := os.Create(path)
		if err == nil {
			err = emit(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			die(1, what+":", err)
		}
	}
	if *memProfile != "" {
		writeOut(*memProfile, "memprofile", func(w io.Writer) error {
			runtime.GC() // surface live retention, not transient garbage
			return pprof.WriteHeapProfile(w)
		})
	}
	if *metricsOut != "" {
		writeOut(*metricsOut, "metrics-out", sc.WriteMetrics)
	}
	if *traceOut != "" {
		writeOut(*traceOut, "trace-out", sc.WriteTrace)
	}
	var got, base float64
	if *ablate != "" {
		got, base = res.Ablate(*ablate, twin)
	}
	if *asJSON {
		out, err := res.JSON()
		if err != nil {
			die(1, err)
		}
		fmt.Println(string(out))
	} else {
		fmt.Println(res)
	}

	failed := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "pegload: check failed: "+format+"\n", args...)
		failed = true
	}
	if *check {
		if res.Admitted == 0 {
			fail("no stream legs admitted")
		}
		if res.FramesDelivered == 0 {
			fail("no frames delivered")
		}
		if res.Underruns != 0 {
			fail("%d buffer underruns among admitted streams", res.Underruns)
		}
		if cfg.StorageBacked() && res.DiskBytesRead == 0 {
			fail("storage-backed run read nothing off the disks")
		}
		if res.DeadlineMisses != 0 {
			fail("%d EDF deadline misses among admitted streams' CPU domains", res.DeadlineMisses)
		}
		if *ablate != "" && got <= base {
			fail("%s ablation: measured run reached %v vs %v in its twin (the mechanism bought nothing)",
				*ablate, got, base)
		}
	}
	if *minRatio > 0 && got < *minRatio*base {
		fail("%s ablation: measured run reached %v vs %v in its twin (%.2fx), want >= %.1fx",
			*ablate, got, base, got/base, *minRatio)
	}
	if *minStorage > 0 && res.StorageStreams < *minStorage {
		fail("only %d disk-backed streams up, want >= %d", res.StorageStreams, *minStorage)
	}
	if *expectRefusals && res.StorageRefused == 0 {
		fail("expected storage admission to refuse titles; it admitted everything")
	}
	if n := active(res.NodeAdmissions); n < *minActiveNodes {
		fail("streams admitted on %d node(s) %v, want >= %d", n, res.NodeAdmissions, *minActiveNodes)
	}
	if *expectReplication && res.ReplicasCompleted == 0 {
		fail("expected a reactive replication to complete; %d triggered, %d completed",
			res.ReplicasTriggered, res.ReplicasCompleted)
	}
	if *expectRecovered && res.FailoverRecovered == 0 {
		fail("expected node failure to recover streams; recovered=0 dropped=%d",
			res.FailoverDropped)
	}
	if *expectSpilled && res.Spilled == 0 {
		fail("expected cross-site spill admissions; every session stayed home")
	}
	if *expectSiteRecovered && res.SiteRecovered == 0 {
		fail("expected the site failure to re-admit sessions on survivors; recovered=0 dropped=%d",
			res.SiteDropped)
	}
	if n := active(res.SiteServed); n < *minActiveSites {
		fail("sessions served from %d site(s) %v, want >= %d", n, res.SiteServed, *minActiveSites)
	}
	if *expectJoins && res.LiveJoins == 0 {
		fail("expected live viewers to be admitted; every join was refused")
	}
	if *expectSubtreeDegraded && res.SubtreeDegraded == 0 {
		fail("expected a channel subtree to degrade under join pressure; no tier drops happened")
	}
	if *minFanoutRatio > 0 && res.FanoutRatio < *minFanoutRatio {
		fail("fan-out delivered %.2f copies per transmitted copy, want >= %.1f",
			res.FanoutRatio, *minFanoutRatio)
	}
	if *expectDegraded && res.DegradeEvents == 0 {
		fail("expected sessions to degrade instead of refuse; no tier drops happened")
	}
	if *expectRestored && res.RestoreEvents == 0 {
		fail("expected freed capacity to restore degraded sessions; %d degrade events, 0 restores",
			res.DegradeEvents)
	}
	if *expectCPURefusals {
		// The cpu-bound proof is strict ordering: the CPU said no while
		// the disks never did and still have room.
		if res.CPURefused == 0 {
			fail("expected the CPU leg to refuse opens; it admitted everything")
		}
		if res.StorageRefused != 0 {
			fail("disk admission refused %d opens; CPU was supposed to be the bottleneck",
				res.StorageRefused)
		}
		if res.DiskCommitted >= 1 {
			fail("disk budget exhausted (%.0f%% committed); CPU did not refuse first",
				100*res.DiskCommitted)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// active counts the non-zero entries of a per-node or per-site census.
func active(census []int64) int {
	n := 0
	for _, c := range census {
		if c > 0 {
			n++
		}
	}
	return n
}

// die reports a usage (code 2) or run (code 1) error and exits.
func die(code int, msg ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"pegload:"}, msg...)...)
	os.Exit(code)
}
