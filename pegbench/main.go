// Command pegbench is the repository's end-to-end benchmark. It drives
// the public loadgen.Build / Scenario.Run / Result API in process on
// four named workloads, times those calls from its own code, checks
// that every repetition produced the same correct scoreboard, and
// prints one JSON result line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash pegbench/run.sh --workload disk-stream --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs;
// with --trace 1 it adds a traced run under a CPU profile and reports
// per-layer host time and counts. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/sim"
)

const (
	// minReps is the fewest untraced repetitions a run medians over.
	minReps = 3
	// profileHz is the traced run's CPU sampling rate, ten times the
	// pprof default so a short run still gives every layer above 2% of
	// host time at least 100 samples.
	profileHz = 1000
	// A traced run pools repetitions until every layer holding more
	// than minShare of the samples rests on at least minLayerSamples.
	minShare        = 0.02
	minLayerSamples = 100
	// telemetryEvery is the sampler cadence of the traced run, which has
	// the program's own telemetry switched on.
	telemetryEvery = 500 * sim.Millisecond
)

// rep is one Build + Run of a workload.
type rep struct {
	res      loadgen.Result
	board    []byte
	setupS   float64 // loadgen.Build wall time
	runS     float64 // Scenario.Run wall time
	cpuS     float64 // process CPU time during Run
	allocB   uint64  // heap bytes allocated during Run
	allocs   uint64  // heap objects allocated during Run
	diskRead int64
}

// runRep builds and runs one repetition and checks it. With att set the
// run has the program's telemetry on and Run is CPU-profiled into att.
// With verify set the stored titles are read back afterwards, which
// costs a scheduler round of simulation, so runs do it once. A nil rep
// with an error is a harness failure; a rep with an error failed a
// check.
func runRep(w *workload, seed int64, att *attribution, verify bool) (*rep, error) {
	cfg := w.cfg
	cfg.Seed = seed
	if att != nil {
		cfg.Trace = true
		cfg.MetricsEvery = telemetryEvery
	}
	runtime.GC() // the previous repetition's garbage is not this one's cost
	t0 := time.Now()
	sc := loadgen.Build(cfg)
	setup := time.Since(t0)

	runtime.GC() // Run starts from the same heap state every repetition
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if att != nil {
		// StartCPUProfile asks for its default rate and warns on stderr
		// that a rate is already set; the earlier call wins.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	cpu0 := cpuSeconds()
	t1 := time.Now()
	res := sc.Run()
	run := time.Since(t1)
	cpu := cpuSeconds() - cpu0
	if att != nil {
		pprof.StopCPUProfile()
		if err := att.add(prof.Bytes()); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)

	board, err := scoreboard(res)
	if err != nil {
		return nil, err
	}
	r := &rep{
		res: res, board: board,
		setupS: setup.Seconds(), runS: run.Seconds(), cpuS: cpu,
		allocB: ms1.TotalAlloc - ms0.TotalAlloc, allocs: ms1.Mallocs - ms0.Mallocs,
		diskRead: diskBytesRead(sc),
	}
	if err := checkRep(w, r); err != nil {
		return r, err
	}
	if verify {
		return r, readBack(sc)
	}
	return r, nil
}

// checkRep is the per-repetition scoreboard check.
func checkRep(w *workload, r *rep) error {
	if r.res.FramesDelivered == 0 {
		return errors.New("no frames delivered")
	}
	if w.unicast && r.res.FramesDelivered > r.res.FramesSent {
		return fmt.Errorf("delivered %d frames > sent %d on a unicast workload",
			r.res.FramesDelivered, r.res.FramesSent)
	}
	if w.guard != nil {
		if err := w.guard(r); err != nil {
			return fmt.Errorf("workload invalid: %w", err)
		}
	}
	return nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	config loadgen.Config // the first repetition's defaulted configuration
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: disk-stream | cache-zipf | live-fanout | metro-spill")
		seed    = flag.Int64("seed", 1, "workload seed (loadgen.Config.Seed)")
		seconds = flag.Float64("seconds", 25, "host seconds to spend measuring")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pegbench:", err)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "pegbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// One P: a run's wall time is then its whole CPU cost, GC included,
	// and does not depend on how busy the host keeps a second CPU.
	// metro-spill's partitions still run as separate goroutines with
	// their barriers; only their parallel speed-up is left out.
	runtime.GOMAXPROCS(1)
	budget := time.Duration(*seconds * float64(time.Second))
	var out *result
	if *trace == 0 {
		out, err = measure(w, *seed, budget)
	} else {
		out, err = traced(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pegbench:", err)
		os.Exit(1)
	}
	if err := printManifest(w, *seed, *trace == 1, out.config); err != nil {
		fmt.Fprintln(os.Stderr, "pegbench: manifest:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pegbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// failure turns a failed check into the result line: the run is not
// correct and every operation of its repetitions counts as failed.
func failure(w *workload, reps int, err error) *result {
	fmt.Fprintln(os.Stderr, "pegbench: check failed:", err)
	n := max(reps, 1) * w.operations()
	return &result{Correct: false, Attempted: n, Failed: n, Metrics: map[string]metric{}, config: w.cfg}
}

// sameBoard checks a repetition's scoreboard against the first one.
func sameBoard(first, r *rep, what string) error {
	if !bytes.Equal(first.board, r.board) {
		return fmt.Errorf("%s scoreboard differs from the first repetition's", what)
	}
	return nil
}

func logRep(i int, kind string, r *rep) {
	fmt.Printf("rep %d %s: setup %.3fs run %.3fs (%.4f s/sim-s) cpu %.3fs frames %d/%d\n",
		i, kind, r.setupS, r.runS, r.runS/r.res.SimSeconds, r.cpuS, r.res.FramesDelivered, r.res.FramesSent)
}

// measure runs untraced repetitions for the time budget (at least
// minReps, stopping before one would overrun it) and reports the
// end-to-end metrics as medians over them.
func measure(w *workload, seed int64, budget time.Duration) (*result, error) {
	start := time.Now()
	var reps []*rep
	for {
		t := time.Now()
		r, err := runRep(w, seed, nil, len(reps) == 0)
		if r == nil {
			return nil, err
		}
		logRep(len(reps), "untraced", r)
		if err == nil && len(reps) > 0 {
			err = sameBoard(reps[0], r, "repetition")
		}
		reps = append(reps, r)
		if err != nil {
			return failure(w, len(reps), err), nil
		}
		last := time.Since(t)
		if len(reps) >= minReps && time.Since(start)+last > budget {
			break
		}
	}
	var setup, perSim []float64
	for _, r := range reps {
		setup = append(setup, r.setupS)
		perSim = append(perSim, r.runS/r.res.SimSeconds)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res := reps[0].res
	admitted, _ := admission(w, res)
	return &result{
		Correct:   true,
		Attempted: len(reps) * w.operations(),
		config:    res.Config,
		Metrics: map[string]metric{
			"wall_per_sim_s":       {median(perSim), "s/s"},
			"setup_s":              {median(setup), "s"},
			"peak_rss_mb":          {rss, "MB"},
			"sessions_admitted":    {float64(admitted), "count"},
			"frame_delivery_ratio": {ratio(float64(res.FramesDelivered), float64(res.FramesSent)), "ratio"},
			"sim_latency_p99_ms":   {res.LatencyP99 / 1e6, "ms"},
		},
	}, nil
}

// admission splits a repetition's operations into those admitted at
// least once and those still refused at the end of the run.
func admission(w *workload, res loadgen.Result) (admitted, refused int) {
	if w.cfg.Live {
		return int(res.LiveJoins), int(res.LiveJoinRefused)
	}
	return w.operations() - res.SiteRefused, res.SiteRefused
}

// tracedLayers are the layers whose self time the traced run reports.
var tracedLayers = []string{
	"disk", "raid", "lfs", "atm", "fileserver", "mcache", "fabric", "devices",
	"stats", "sim", "netsig", "core", "vodsite", "metro", "runtime", "loadgen", "telemetry",
}

// traced runs an untraced repetition (the reference scoreboard), then
// traced ones until the budget is spent and the profile is dense
// enough, then a last untraced one (warm, like the traced ones) for the
// host-side rates and the tracing overhead, and reports per-layer
// metrics.
func traced(w *workload, seed int64, budget time.Duration) (*result, error) {
	start := time.Now()
	base, err := runRep(w, seed, nil, true)
	if base == nil {
		return nil, err
	}
	logRep(0, "untraced", base)
	if err != nil {
		return failure(w, 1, err), nil
	}
	att := newAttribution()
	var tracedRun []float64
	var tracedCPU float64
	nreps := 1
	next := func(a *attribution, kind string) (*rep, error) {
		r, err := runRep(w, seed, a, false)
		if r == nil {
			return nil, err
		}
		logRep(nreps, kind, r)
		nreps++
		if err == nil {
			err = sameBoard(base, r, kind)
		}
		return r, err
	}
	for {
		r, err := next(att, "traced")
		if r == nil {
			return nil, err
		}
		if err != nil {
			return failure(w, nreps, err), nil
		}
		tracedRun = append(tracedRun, r.runS)
		tracedCPU += r.cpuS
		elapsed := time.Since(start)
		if elapsed >= budget && att.dense() || elapsed >= budget*3/2 {
			break
		}
	}
	warm, err := next(nil, "untraced")
	if warm == nil {
		return nil, err
	}
	if err != nil {
		return failure(w, nreps, err), nil
	}
	printShares(att)
	if !att.dense() {
		fmt.Fprintf(os.Stderr, "pegbench: profile too sparse: a layer above %.0f%% has under %d samples\n",
			100*minShare, minLayerSamples)
	}
	if w.traceGuard != nil {
		if err := w.traceGuard(att); err != nil {
			return failure(w, nreps, fmt.Errorf("workload invalid: %w", err)), nil
		}
	}

	res := base.res
	_, refused := admission(w, res)
	frames := float64(res.FramesDelivered)
	var loss float64
	if w.unicast {
		loss = ratio(float64(res.FramesSent-res.FramesDelivered), float64(res.FramesSent))
	}
	m := map[string]metric{
		"refused_ratio":                 {ratio(float64(refused), float64(w.operations())), "ratio"},
		"frame_loss_ratio":              {loss, "ratio"},
		"underruns":                     {float64(res.Underruns), "count"},
		"sim_latency_p50_ms":            {res.LatencyP50 / 1e6, "ms"},
		"sim_jitter_p99_ms":             {res.JitterP99 / 1e6, "ms"},
		"disk.read_amplification":       {ratio(float64(base.diskRead), float64(res.StorageBytes)), "ratio"},
		"runtime.alloc_bytes_per_frame": {ratio(float64(warm.allocB), frames), "B/frame"},
		"runtime.allocs_per_frame":      {ratio(float64(warm.allocs), frames), "1/frame"},
		"fileserver.round_overruns":     {float64(res.RoundOverruns), "count"},
		"mcache.hit_ratio":              {ratio(float64(res.CacheHits), float64(res.CacheHits+res.CacheMisses)), "ratio"},
		"mcache.byte_share":             {ratio(float64(res.CacheBytesServed), float64(res.StorageBytes)), "ratio"},
		"mcache.demotions":              {float64(res.CacheDemotions), "count"},
		"fabric.cells_per_frame":        {ratio(float64(res.CellsDelivered), frames), "1/frame"},
		"fabric.fanout_ratio":           {res.FanoutRatio, "ratio"},
		"sim.events_per_frame":          {ratio(float64(res.EventsFired), frames), "1/frame"},
		"sim.ns_per_event":              {ratio(warm.runS*1e9, float64(res.EventsFired)), "ns"},
		"sim.cpu_per_wall":              {ratio(warm.cpuS, warm.runS), "ratio"},
		"vodsite.replicas_triggered":    {float64(res.ReplicasTriggered), "count"},
		"vodsite.replicas_completed":    {float64(res.ReplicasCompleted), "count"},
		"metro.spilled":                 {float64(res.Spilled), "count"},
		"metro.trunk_refused":           {float64(res.TrunkRefused), "count"},
		"metro.site_recovered":          {float64(res.SiteRecovered), "count"},
		"metro.site_dropped":            {float64(res.SiteDropped), "count"},
		"metro.catalog_syncs":           {float64(res.CatalogSyncs), "count"},
		"metro.cross_copies":            {float64(res.CrossSiteCopies), "count"},
		"core.joins":                    {float64(res.LiveJoins), "count"},
		"core.join_refused":             {float64(res.LiveJoinRefused), "count"},
		"core.subtree_degraded":         {float64(res.SubtreeDegraded), "count"},
		"trace.overhead":                {ratio(median(tracedRun), warm.runS), "ratio"},
		"trace.samples":                 {float64(att.total), "count"},
	}
	// The kernel delivers profiling signals at its tick rate, below
	// profileHz, so sample counts give shares, not durations: a layer's
	// host time is its share of the CPU time the traced runs measured.
	msPerSimS := 1e3 * tracedCPU / (res.SimSeconds * float64(len(tracedRun)))
	var covered int64
	for _, l := range tracedLayers {
		m[l+".host_ms"] = metric{att.share(l) * msPerSimS, "ms/s"}
		covered += att.samples[l]
	}
	m["trace.coverage"] = metric{ratio(float64(covered), float64(att.total)), "ratio"}
	return &result{Correct: true, Attempted: nreps * w.operations(), Metrics: m, config: res.Config}, nil
}

// printShares logs every layer's share of traced host time, including
// layers the metrics do not name.
func printShares(a *attribution) {
	layers := make([]string, 0, len(a.samples))
	for l := range a.samples {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return a.samples[layers[i]] > a.samples[layers[j]] })
	fmt.Printf("traced host time: %d samples\n", a.total)
	for _, l := range layers {
		fmt.Printf("  %-12s %5.1f%%  %6d samples\n", l, 100*a.share(l), a.samples[l])
	}
}
