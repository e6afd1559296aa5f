package loadgen

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestValidateRejectsConflicts: each combination two validators used to
// disagree on is one Validate error naming what is wrong, not a panic
// or a silently ignored option.
func TestValidateRejectsConflicts(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want []string // substrings of the error
	}{
		{"cluster+adaptive", Config{Cluster: true, Adaptive: true}, []string{"cluster", "adaptive"}},
		{"cluster+spill-threshold", Config{Cluster: true, SpillThreshold: 2}, []string{"cluster", "SpillThreshold"}},
		{"cluster+trunk-rate", Config{Cluster: true, TrunkRate: 1e9}, []string{"cluster", "TrunkRate"}},
		{"live+from-storage", Config{Live: true, FromStorage: true}, []string{"from-storage", "live"}},
		{"unicast without live", Config{Unicast: true}, []string{"mesh", "Unicast"}},
		{"ragged round", Config{Cluster: true, Round: 333 * sim.Millisecond}, []string{"round"}},
		{"ragged default round", Config{Adaptive: true, FrameHz: 3}, []string{"round"}},
		{"partitions on mesh", Config{Partitions: 2}, []string{"mesh", "Partitions"}},
		{"cell-accurate shards", Config{Cluster: true, Partitions: 2, CellAccurate: true}, []string{"CellAccurate"}},
		{"negative count", Config{Workstations: -1}, []string{"Workstations"}},
		{"oversize frame", Config{FrameBytes: 1 << 16}, []string{"AAL5"}},
		{"unknown pattern", Config{Pattern: 7}, []string{"pattern"}},
		{"sub-nanosecond frames", Config{FrameHz: 2e9}, []string{"Hz"}},
		{"live channel faster than its link", Config{Live: true, PeakRate: 2e8}, []string{"peak rate"}},
	} {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, w)
			}
		}
	}
	// CPUBound+Adaptive is one topology, not two.
	if err := (Config{CPUBound: true, Adaptive: true}).Validate(); err != nil {
		t.Errorf("cpu-bound adaptive: %v", err)
	}
}

// TestNoConfigPanics: every subset of the topology switches crossed with
// every subset of a few mode options either fails Validate or builds
// and runs at tiny sizes without panicking.
func TestNoConfigPanics(t *testing.T) {
	topologies := []func(c *Config){
		func(c *Config) { c.FromStorage = true },
		func(c *Config) { c.Cluster = true },
		func(c *Config) { c.Metro = true },
		func(c *Config) { c.Live = true },
		func(c *Config) { c.Adaptive = true },
		func(c *Config) { c.CPUBound = true },
	}
	options := []func(c *Config){
		func(c *Config) { c.Unicast = true },
		func(c *Config) { c.NoSpill = true },
		func(c *Config) { c.Partitions = 2 },
		func(c *Config) { c.CacheMB = 8 },
	}
	valid := 0
	for tm := 0; tm < 1<<len(topologies); tm++ {
		for om := 0; om < 1<<len(options); om++ {
			cfg := Config{Workstations: 2, StreamsPerWS: 1, Duration: 50 * sim.Millisecond}
			for i, set := range topologies {
				if tm&(1<<i) != 0 {
					set(&cfg)
				}
			}
			for i, set := range options {
				if om&(1<<i) != 0 {
					set(&cfg)
				}
			}
			if cfg.Validate() != nil {
				continue
			}
			valid++
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("valid config %+v panicked: %v", cfg, p)
					}
				}()
				Build(cfg).Run()
			}()
		}
	}
	// mesh 1, from-storage 2, cluster 4, metro 8, live 8, and the
	// adaptive row three ways × 2.
	if valid != 29 {
		t.Errorf("%d valid combinations, want 29", valid)
	}
}

// TestScenarioTableNamesFields: every option a row lists is a Config
// field, and every ablation a row offers exists.
func TestScenarioTableNamesFields(t *testing.T) {
	fields := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		fields[f.Name] = true
	}
	lists := [][]string{commonOptions, signedOptions}
	for _, s := range scenarios {
		lists = append(lists, s.options)
		for _, a := range s.ablations {
			if _, ok := ablations[a]; !ok {
				t.Errorf("%s: unknown ablation %q", s.name, a)
			}
		}
	}
	for _, l := range lists {
		for _, name := range l {
			if !fields[name] {
				t.Errorf("option %q is not a Config field", name)
			}
		}
	}
}

// TestDefaultsPrecedence: CPUBound's small frames win over Adaptive's
// large ones when both are set; each alone keeps its own.
func TestDefaultsPrecedence(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want int
	}{
		{Config{CPUBound: true, Adaptive: true}, 1200},
		{Config{CPUBound: true}, 1200},
		{Config{Adaptive: true}, 19200},
		{Config{Cluster: true}, 960},
		{Config{Adaptive: true, FrameBytes: 4800}, 4800},
	} {
		c := tc.cfg
		topo, err := c.topology()
		if err != nil {
			t.Fatal(err)
		}
		c.setDefaults(topo)
		if c.FrameBytes != tc.want {
			t.Errorf("%+v: FrameBytes %d, want %d", tc.cfg, c.FrameBytes, tc.want)
		}
	}
}

// TestAblationTwin: a twin switches exactly its mechanism and telemetry
// off, and refuses ablations the scenario does not offer or a measured
// run that already runs without the mechanism.
func TestAblationTwin(t *testing.T) {
	cfg := telemetryCfg()
	cfg.Trace = true
	twin, err := cfg.Twin("cache")
	if err != nil {
		t.Fatal(err)
	}
	want := cfg
	want.CacheMB, want.Trace = 0, false
	if twin != want {
		t.Fatalf("twin %+v, want %+v", twin, want)
	}
	for _, tc := range []struct {
		cfg  Config
		name string
	}{
		{clusterCfg(), "cache"}, // no cache to ablate
		{clusterCfg(), "spill"}, // not a cluster ablation
		{metroCfg(), "bogus"},
	} {
		if _, err := tc.cfg.Twin(tc.name); err == nil {
			t.Errorf("%s twin of %+v accepted", tc.name, tc.cfg)
		}
	}

	var r Result
	r.StorageStreams = 12
	got, base := r.Ablate("cache", Result{StorageStreams: 4})
	if got != 12 || base != 4 || r.AblationStreams != 4 || r.CacheRatio != 3 {
		t.Fatalf("cache column: got=%v base=%v %+v", got, base, r)
	}
}

// TestMetroCountsCacheServedStreams: a metro request that rides a wake
// is a cache-served stream on the scoreboard, as in cluster mode.
func TestMetroCountsCacheServedStreams(t *testing.T) {
	cfg := metroCfg()
	cfg.CacheMB = 64
	cfg.Trace = true
	sc := Build(cfg)
	res := sc.Run()
	served := 0
	for _, ev := range sc.Metro().Plane().Tracer().Events() {
		if ev.Event == "cache-served" {
			served++
		}
	}
	if res.CacheServedStreams == 0 || res.CacheServedStreams > served {
		t.Fatalf("scoreboard counts %d cache-served streams, trace has %d cache-served admissions",
			res.CacheServedStreams, served)
	}
	if res.CacheServedStreams > res.StorageStreams {
		t.Fatalf("%d cache-served of %d streams", res.CacheServedStreams, res.StorageStreams)
	}
}
