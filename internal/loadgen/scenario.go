package loadgen

// The scenario table: one row per traffic topology, declaring how a
// Config selects it, its defaults, the options it reads, whether its
// streams come off the disks, the ablation twins it supports and the
// hooks that build, start and score it. Validation, defaulting, the
// build dispatch, the storage-backed scoreboard line and the -ablate
// switch all read the rows; nothing else knows which mode is which.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"

	"repro/internal/atm"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// topology is one row of the scenario table.
type topology struct {
	name string
	// selects reports whether a Config asks for the topology. The
	// Pattern rows (mesh, vod) have none: a Config that selects no
	// other row runs the row its Pattern names.
	selects func(c *Config) bool
	// defaults fills the options a Config leaves zero, ahead of the
	// generic defaults; derive then fills the defaults computed from
	// other options.
	defaults Config
	derive   func(c *Config)
	// options are the Config fields the topology reads beyond the
	// common ones; any other field set is a configuration error.
	options []string
	// storage marks topologies whose every stream is read off the
	// disks (the scoreboard's storage line and pegload -check's disk
	// test).
	storage bool
	// ablations are the twins pegload -ablate may run.
	ablations []string

	build   func(sc *Scenario)
	start   func(sc *Scenario)            // optional, from Run
	collect func(sc *Scenario, r *Result) // optional, the mode's columns

	// Viewer-request topologies: open admits one request (nil for the
	// others); probe reports whether open would admit it right now.
	open  func(sc *Scenario, req *request) (session, error)
	probe func(sc *Scenario, req *request) bool
}

// Option groups several rows read.
var (
	storageOptions = []string{"Servers", "Round", "CacheMB"}
	siteOptions    = []string{"Titles", "ZipfS", "Seed", "BaseReplicas", "RefusalThreshold",
		"MaxReplicas", "ReplicationDisabled", "Partitions", "FastDisks"}
)

// scenarios is the table. Row order is the order Validate reports
// conflicting selections in.
var scenarios = []topology{
	{
		name:  "mesh",
		build: (*Scenario).buildMesh,
	},
	{
		name:    "vod",
		options: []string{"Servers"},
		build:   (*Scenario).buildVoD,
	},
	{
		name:     "from-storage",
		selects:  func(c *Config) bool { return c.FromStorage },
		defaults: Config{Pattern: VoD, Round: 2 * sim.Second, TitleRounds: 4},
		options:  storageOptions,
		storage:  true,
		build:    (*Scenario).buildVoD,
	},
	{
		name:      "cluster",
		selects:   func(c *Config) bool { return c.Cluster },
		defaults:  Config{Pattern: VoD, Servers: 4, Round: sim.Second, TitleRounds: 4, ZipfS: 1.3, Seed: 1},
		derive:    func(c *Config) { orDefault(&c.Titles, 2*c.Servers) },
		options:   slices.Concat(storageOptions, siteOptions, []string{"FailNodeAt", "FailNode"}),
		storage:   true,
		ablations: []string{"cache"},
		build:     (*Scenario).buildCluster,
		start:     (*Scenario).startCluster,
		collect:   (*Scenario).collectCluster,
		open:      openCluster,
		probe: func(sc *Scenario, req *request) bool {
			return sc.ctrl.Probe(req.title, req.viewer.Port).OK
		},
	},
	{
		name:    "metro",
		selects: func(c *Config) bool { return c.Metro },
		defaults: Config{Pattern: VoD, Sites: 3, Servers: 2, SiteReplicas: 2, Round: sim.Second,
			TitleRounds: 4, ZipfS: 1.3, Seed: 1},
		derive: func(c *Config) {
			c.SiteReplicas = min(c.SiteReplicas, c.Sites)
			orDefault(&c.Titles, 2*c.Servers*c.Sites)
		},
		options: slices.Concat(storageOptions, siteOptions, []string{"Sites", "SiteReplicas",
			"NoSpill", "TrunkRate", "SpillThreshold", "FailSiteAt", "FailSite"}),
		storage:   true,
		ablations: []string{"cache", "spill"},
		build:     (*Scenario).buildMetro,
		start:     (*Scenario).startMetro,
		collect:   (*Scenario).collectMetro,
		open:      openMetro,
		probe: func(sc *Scenario, req *request) bool {
			rep, _ := sc.metroCtl.Probe(metroHome, req.title, req.viewer.Port)
			return rep.OK
		},
	},
	{
		name:    "live",
		selects: func(c *Config) bool { return c.Live },
		defaults: Config{Channels: 4, Workstations: 12, Servers: 1, Round: 500 * sim.Millisecond,
			TitleRounds: 2, ZipfS: 1.3, Seed: 1},
		derive: func(c *Config) {
			orDefault(&c.VodStreams, c.Workstations/2)
			orDefault(&c.HoldMean, c.Duration/4)
		},
		options: slices.Concat(storageOptions, []string{"ZipfS", "Seed", "Channels", "HoldMean",
			"VodStreams", "Unicast", "Partitions"}),
		ablations: []string{"tree"},
		build:     (*Scenario).buildLive,
		start:     (*Scenario).startLive,
		collect:   (*Scenario).collectLive,
	},
	{
		// CPUBound shares the unicast disk-backed topology; it turns on
		// per-node CPU admission and keeps the Guaranteed class unless
		// Adaptive is also set.
		name:     "adaptive",
		selects:  func(c *Config) bool { return c.Adaptive || c.CPUBound },
		defaults: Config{Pattern: VoD, Servers: 1, Round: 500 * sim.Millisecond, TitleRounds: 2},
		derive: func(c *Config) {
			if c.CPUBound {
				// Small frames: the disks and links barely notice a stream
				// the CPU model finds expensive. Set first, so it wins
				// over Adaptive's frame size.
				orDefault(&c.FrameBytes, 1200)
				orDefault(&c.CPUBytesPerSec, 1<<20)
			}
			if c.Adaptive {
				// Windows must span many stripe chunks for a tier drop to
				// shrink the per-disk cost.
				orDefault(&c.FrameBytes, 19200)
				orDefault(&c.ReleaseEvery, 3)
				orDefault(&c.ReleaseAt, c.Duration/2)
			}
		},
		options: slices.Concat(storageOptions, []string{"GuaranteedOnly", "ReleaseAt", "ReleaseEvery",
			"CPUBytesPerSec"}),
		storage: true,
		build:   (*Scenario).buildAdaptive,
		start:   (*Scenario).startAdaptive,
		collect: (*Scenario).collectAdaptive,
	},
}

// commonOptions are read by every topology; the topology selectors
// are checked by the one-topology rule instead. TitleRounds is here
// because pegload always sets it (default 4): the topologies without
// stored titles ignore it.
var commonOptions = []string{"Pattern", "Workstations", "StreamsPerWS", "FrameBytes", "FrameHz",
	"PeakRate", "Duration", "LinkRate", "CellAccurate", "Trace", "MetricsEvery", "TitleRounds",
	"FromStorage", "Cluster", "Metro", "Live", "Adaptive", "CPUBound"}

// signedOptions give a negative value a meaning (disable, never, or a
// index taken modulo); every other numeric option must be >= 0.
var signedOptions = []string{"VodStreams", "SpillThreshold", "ReleaseEvery", "FailNode", "FailSite"}

// commonDefaults fill what the row left zero, before derive runs.
var commonDefaults = Config{Workstations: 8, StreamsPerWS: 4, FrameHz: 100, Duration: sim.Second,
	LinkRate: fabric.Rate100M}

// orDefault sets *p to v if it is zero.
func orDefault[T comparable](p *T, v T) {
	var zero T
	if *p == zero {
		*p = v
	}
}

// fill sets every zero field of c to d's value.
func fill(c *Config, d Config) {
	dst, src := reflect.ValueOf(c).Elem(), reflect.ValueOf(d)
	for i := range src.NumField() {
		if dst.Field(i).IsZero() {
			dst.Field(i).Set(src.Field(i))
		}
	}
}

// topology returns the row c selects.
func (c *Config) topology() (*topology, error) {
	var t *topology
	for i := range scenarios {
		switch s := &scenarios[i]; {
		case s.selects == nil:
			if t == nil && s.name == c.Pattern.String() {
				t = s
			}
		case !s.selects(c):
		case t != nil && t.selects != nil:
			return nil, fmt.Errorf("loadgen: a run has one topology, but the Config selects both %s and %s", t.name, s.name)
		default:
			t = s
		}
	}
	if t == nil {
		return nil, fmt.Errorf("loadgen: unknown pattern %v", c.Pattern)
	}
	return t, nil
}

// setDefaults fills every option t reads that c leaves zero.
func (c *Config) setDefaults(t *topology) {
	fill(c, t.defaults)
	fill(c, commonDefaults)
	if t.derive != nil {
		t.derive(c)
	}
	orDefault(&c.Servers, (c.Workstations+15)/16)
	orDefault(&c.FrameBytes, 960)
	c.FrameBytes = max(c.FrameBytes, headerSize)
	if c.PeakRate == 0 {
		wire := int64(atm.CellsFor(c.FrameBytes)) * int64(atm.CellSize*8) * int64(c.FrameHz)
		c.PeakRate = wire * 5 / 4
	}
}

// Validate reports whether c describes a runnable scenario: exactly
// one topology, no option that topology does not read, no negative
// count, frames that fit one AAL5 PDU and one clock tick, a storage
// round that is a whole number of frame periods, and a peak rate some
// link can carry.
func (c Config) Validate() error {
	_, err := c.validate()
	return err
}

func (c Config) validate() (*topology, error) {
	t, err := c.topology()
	if err != nil {
		return nil, err
	}
	v := reflect.ValueOf(c)
	for i := range v.NumField() {
		name, f := v.Type().Field(i).Name, v.Field(i)
		if !f.IsZero() && !slices.Contains(commonOptions, name) && !slices.Contains(t.options, name) {
			return nil, fmt.Errorf("loadgen: the %s scenario does not read option %s", t.name, name)
		}
		if f.CanInt() && f.Int() < 0 && !slices.Contains(signedOptions, name) {
			return nil, fmt.Errorf("loadgen: option %s is negative (%d)", name, f.Int())
		}
	}
	if c.FrameBytes > atm.MaxFrame {
		return nil, fmt.Errorf("loadgen: %d-byte frames exceed the %d-byte AAL5 limit", c.FrameBytes, atm.MaxFrame)
	}
	if c.CellAccurate && c.Partitions > 1 {
		return nil, errors.New("loadgen: CellAccurate runs on one partition at most")
	}
	d := c
	d.setDefaults(t)
	if sim.Second/sim.Duration(d.FrameHz) == 0 {
		return nil, fmt.Errorf("loadgen: %d Hz frames are shorter than the 1 ns clock tick", d.FrameHz)
	}
	if ticks := int64(d.FrameHz) * int64(d.Round); d.Round != 0 &&
		(ticks%int64(sim.Second) != 0 || ticks < int64(sim.Second)) {
		return nil, fmt.Errorf("loadgen: round %v is not a whole number of %d Hz frame periods", d.Round, d.FrameHz)
	}
	if d.PeakRate > d.LinkRate {
		// Every stream crosses at least one link: none could be admitted.
		return nil, fmt.Errorf("loadgen: peak rate %d b/s exceeds the %d b/s links", d.PeakRate, d.LinkRate)
	}
	return t, nil
}

// StorageBacked reports whether every stream of the scenario c selects
// is read off the disks.
func (c Config) StorageBacked() bool {
	t, err := c.topology()
	return err == nil && t.storage
}

// ablations are the twin runs: off switches the mechanism off in the
// twin's Config; record fills the twin's scoreboard column into the
// measured result and returns the counts the two runs compare on.
var ablations = map[string]struct {
	off    func(c *Config)
	record func(r *Result, twin Result) (got, base float64)
}{
	// cache: the RAM interval tier off; streams held.
	"cache": {
		off: func(c *Config) { c.CacheMB = 0 },
		record: func(r *Result, twin Result) (float64, float64) {
			r.AblationStreams = twin.StorageStreams
			if twin.StorageStreams > 0 {
				r.CacheRatio = float64(r.StorageStreams) / float64(twin.StorageStreams)
			}
			return float64(r.StorageStreams), float64(twin.StorageStreams)
		},
	},
	// spill: cross-site admission off; sessions admitted.
	"spill": {
		off: func(c *Config) { c.NoSpill = true },
		record: func(r *Result, twin Result) (float64, float64) {
			r.SpillAblationAdmitted = twin.Admitted
			return float64(r.Admitted), float64(twin.Admitted)
		},
	},
	// tree: one circuit per live viewer instead of the multicast
	// tree; joins admitted.
	"tree": {
		off: func(c *Config) { c.Unicast = true },
		record: func(r *Result, twin Result) (float64, float64) {
			r.UnicastAblationJoins = twin.LiveJoins
			return float64(r.LiveJoins), float64(twin.LiveJoins)
		},
	},
}

// Twin returns the configuration of c's ablation twin: the identical
// scenario with the named mechanism switched off (see the topology's
// ablations) and telemetry off, so emitted traces and time series
// describe the measured run only.
func (c Config) Twin(name string) (Config, error) {
	t, err := c.validate()
	if err != nil {
		return c, err
	}
	a, ok := ablations[name]
	if !ok || !slices.Contains(t.ablations, name) {
		return c, fmt.Errorf("loadgen: the %s scenario has no %q ablation (it has %v)", t.name, name, t.ablations)
	}
	twin := c
	a.off(&twin)
	if twin == c {
		return c, fmt.Errorf("loadgen: nothing to ablate: the measured run already has %s off", name)
	}
	twin.Trace, twin.MetricsEvery = false, 0
	return twin, nil
}

// Ablate records the twin's scoreboard column in r and returns the
// counts the two runs compare on: the measured run's and the twin's.
// name must be one Twin accepted.
func (r *Result) Ablate(name string, twin Result) (got, base float64) {
	return ablations[name].record(r, twin)
}
