package loadgen

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// telemetryCfg is a small cache-bearing cluster scenario that exercises
// every trace verb the short lane cares about: admissions, disk
// refusals and cache-served wake riders.
func telemetryCfg() Config {
	cfg := clusterCfg()
	cfg.Workstations = 12
	cfg.StreamsPerWS = 2
	cfg.Servers = 2
	cfg.Titles = 4
	cfg.ReplicationDisabled = true
	cfg.CacheMB = 64
	cfg.Duration = 4 * sim.Second
	return cfg
}

// TestTelemetryNeverPerturbs is the observability plane's core
// property: a run with tracing and metrics sampling enabled must
// produce the same scoreboard — frame counts, latency percentiles,
// events fired — as the identical run with telemetry off, serially and
// at -partitions 1 (where the sampler chains real clock events that
// collect subtracts back out) and at -partitions 4 (where it rides
// lookahead barriers and injects nothing).
func TestTelemetryNeverPerturbs(t *testing.T) {
	for _, parts := range []int{0, 1, 4} {
		cfg := telemetryCfg()
		cfg.Partitions = parts
		off := Build(cfg).Run()

		cfg.Trace = true
		cfg.MetricsEvery = 250 * sim.Millisecond
		on := Build(cfg).Run()

		stripWall(&off)
		stripWall(&on)
		if !reflect.DeepEqual(off, on) {
			t.Fatalf("partitions=%d: telemetry changed the scoreboard:\noff: %+v\non:  %+v",
				parts, off, on)
		}
	}
}

// TestTelemetryDeterministic pins the telemetry byte streams
// themselves, for a single site and for a metro federation (whose
// kernel gauges and tracer belong to the shared plane): serial and
// -partitions 1 emit bit-identical metrics and traces, and a fixed
// sharded run is a pure function of its configuration.
func TestTelemetryDeterministic(t *testing.T) {
	emit := func(cfg Config, parts int) (metrics, trace []byte) {
		cfg.Partitions = parts
		cfg.Trace = true
		cfg.MetricsEvery = 250 * sim.Millisecond
		sc := Build(cfg)
		sc.Run()
		var m, tr bytes.Buffer
		if err := sc.WriteMetrics(&m); err != nil {
			t.Fatal(err)
		}
		if err := sc.WriteTrace(&tr); err != nil {
			t.Fatal(err)
		}
		return m.Bytes(), tr.Bytes()
	}
	metro := metroCfg()
	metro.FailSiteAt = 4 * sim.Second
	metro.FailSite = 1
	for _, tc := range []struct {
		name    string
		cfg     Config
		sharded int
	}{
		{"cluster", telemetryCfg(), 4},
		{"metro", metro, 3},
	} {
		m0, t0 := emit(tc.cfg, 0)
		m1, t1 := emit(tc.cfg, 1)
		if !bytes.Equal(m0, m1) {
			t.Errorf("%s: -partitions 1 metrics diverged from serial", tc.name)
		}
		if !bytes.Equal(t0, t1) {
			t.Errorf("%s: -partitions 1 trace diverged from serial", tc.name)
		}

		mNa, tNa := emit(tc.cfg, tc.sharded)
		mNb, tNb := emit(tc.cfg, tc.sharded)
		if !bytes.Equal(mNa, mNb) {
			t.Errorf("%s: two -partitions %d runs emitted different metrics", tc.name, tc.sharded)
		}
		if !bytes.Equal(tNa, tNb) {
			t.Errorf("%s: two -partitions %d runs emitted different traces", tc.name, tc.sharded)
		}
	}
}

// TestTelemetryTraceContent asserts the trace actually carries the
// lifecycle the plane promises: opens, admissions with per-leg
// headrooms, disk refusals attributed to their leg, and cache-served
// streams — and that the refused count agrees with the site's per-leg
// refusal stats (one taxonomy, one source of truth).
func TestTelemetryTraceContent(t *testing.T) {
	cfg := telemetryCfg()
	cfg.Trace = true
	sc := Build(cfg)
	res := sc.Run()

	events := sc.Site().Plane.Tracer().Events()
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Event]++
		switch ev.Event {
		case "admitted":
			if len(ev.Legs) == 0 {
				t.Fatalf("admitted event without leg samples: %+v", ev)
			}
		case "refused":
			if ev.Leg == "" {
				t.Fatalf("refused event without a leg: %+v", ev)
			}
		}
	}
	if counts["open"] == 0 || counts["admitted"] == 0 {
		t.Fatalf("trace missing opens/admissions: %v", counts)
	}
	if res.StorageRefused > 0 && counts["refused"] == 0 {
		t.Fatalf("scoreboard refused %d but trace has no refused events", res.StorageRefused)
	}
	if res.CacheServedStreams > 0 && counts["cache-served"] == 0 {
		t.Fatalf("scoreboard has %d cache-served streams but trace has none",
			res.CacheServedStreams)
	}

	var byLeg int64
	qs := sc.Site().QoSStats
	for _, n := range qs.RefusedLeg {
		byLeg += n
	}
	if byLeg+qs.RefusedOther != qs.Refused {
		t.Fatalf("per-leg refusals (%d) + other (%d) != refused (%d)",
			byLeg, qs.RefusedOther, qs.Refused)
	}
}
