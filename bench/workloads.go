package main

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"time"

	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/manet"
	"repro/internal/metrics"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// The frozen workload constants. Everything a run does is a pure
// function of these and -seed; they are printed with every result so two
// result files can be told apart. The request counts are the 10-15 s
// sizes of README.md's "Sizing" divided by sizeFactor, which brings one
// repeat's timed phase to about one second on the 2-core reference
// box, so a run fits ten or more repeats and the driver's
// total-time cap holds.
const (
	benchProcs   = 2 // GOMAXPROCS of every child, sweep Workers, Shards
	sizeFactor   = 12
	sweepHosts   = 100
	sweepReqs    = 400 / sizeFactor
	sweepReps    = 2
	clusterCount = 8
	clusterHosts = 200
	clusterMap   = 40
	clusterReqs  = 2400 / sizeFactor
	sparseHosts  = 1000
	sparseMap    = 35
	sparseSpeed  = 80
	sparseReqs   = 12000 / sizeFactor
	megaWorlds   = 3
	megaHosts    = 100_000
	megaMap      = 300
	megaSpeed    = 50
	megaReqs     = 2500 / sizeFactor
	ckptHosts    = 100
	ckptMap      = 5
	// ckpt-resume is sized on its own: every checkpoint carries the
	// metrics fold so far, so its timed phase grows faster than its
	// request count and a common divisor does not carry over.
	ckptReqs  = 1000
	ckptEvery = 10 * sim.Second
)

var sweepMaps = []int{1, 3, 5, 7, 9, 11}

// sweepCandidates is fig13's candidate list, frozen here so the workload
// does not shift under a later change to experiment.runFig13.
func sweepCandidates() []manet.Config {
	return []manet.Config{
		{Scheme: scheme.Flooding{}},
		{Scheme: scheme.Counter{C: 2}},
		{Scheme: scheme.Counter{C: 6}},
		{Scheme: scheme.AdaptiveCounter{}},
		{Scheme: scheme.Location{A: 0.1871}},
		{Scheme: scheme.Location{A: 0.0134}},
		{Scheme: scheme.AdaptiveLocation{}},
		{Scheme: scheme.NeighborCoverage{Label: "NC-DHI"}, HelloMode: manet.HelloDynamic},
	}
}

// scale divides requests and hosts for the test-only tiny runs.
type scale struct{ reqDiv, hostDiv int }

var scales = map[string]scale{
	"full": {1, 1},
	"tiny": {40, 25},
}

func (s scale) req(n int) int   { return max(n/s.reqDiv, 4) }
func (s scale) hosts(n int) int { return max(n/s.hostDiv, 40) }

// workloadSpec names one workload and says why it is in the set.
type workloadSpec struct {
	name string
	why  string
	// engine is the engine the end-to-end runs use, by ParseEngine name;
	// "" is the default engine. A non-default engine is also checked
	// against sequential-oracle, and its traced run adds the engine arms.
	engine string
	build  func(seed uint64, sc scale) *job
	// reference, if set, builds the run whose summaries the workload's
	// must equal, and says what the comparison shows. It returns nil when
	// the reference cannot be built at this commit.
	reference func(seed uint64, sc scale) (*job, string)
}

// onOracle is the reference of a workload that runs on a non-oracle
// engine: the same job on sequential-oracle.
func onOracle(build func(uint64, scale) *job) func(uint64, scale) (*job, string) {
	return func(seed uint64, sc scale) (*job, string) {
		j := build(seed, sc)
		if !j.setEngine(oracleEngine, 0) {
			return nil, ""
		}
		return j, "the workload's engine against " + oracleEngine
	}
}

var workloads = []workloadSpec{
	{
		name:  "fig13-sweep",
		why:   "the paper's overall comparison, 8 schemes x 6 maps x 2 replicas through RunMatrix: scheme judges and geom coverage do the work, engines and snapshot none",
		build: buildSweep,
	},
	{
		name:      "cluster-storm",
		why:       "8 static 200-host clusters, flooding, sharded: dense local storms load phy overlap, mac backoff and sim cancel; scheme, neighbor and mobility are idle",
		engine:    "sharded",
		build:     buildCluster,
		reference: onOracle(buildCluster),
	},
	{
		name:  "sparse-hello",
		why:   "1000 mobile hosts at the 11x11 density, NC with dynamic HELLO: nearly all transmissions are beacons, so neighbor tables lead and the collision path is cold",
		build: buildSparse,
	},
	{
		name:      "mega-sharded",
		why:       "three 100k-host worlds through one arena, sharded: construction, shard wheels, mobility lanes and barriers dominate and slabs set peak RSS; radio traffic is a rounding error",
		engine:    "sharded",
		build:     buildMega,
		reference: onOracle(buildMega),
	},
	{
		name:  "ckpt-resume",
		why:   "one paper point checkpointed every 10 simulated seconds, cancelled half way, decoded, restored and finished: the only workload where snapshot writes sit beside the run",
		build: buildCkpt,
		reference: func(seed uint64, sc scale) (*job, string) {
			return worldsJob(buildCkpt(seed, sc).cfgs, nil, nil), "the resumed run against the uninterrupted one"
		},
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// job is one repeat of a workload: generated inputs plus the two phases
// the end-to-end metrics separate. prepare builds what the bench itself
// constructs before the timed phase; run is the timed phase and returns
// one summary per op (per sweep point for the sweep, which merges its
// replicas). Both add their host time to wall or setup themselves,
// because a world built through an arena is constructed between two
// runs. A job is single-use; a nil span runs it untraced.
type job struct {
	ops      int // simulations in the job
	requests int // broadcasts every returned summary must hold
	prepare  func(root *span) error
	run      func(root *span) ([]metrics.Summary, error)
	wall     time.Duration
	setup    time.Duration
	// parallel holds each world's barrier accounting after run.
	parallel []manet.ParallelStats
	// cfgs are the simulations' configurations: the sweep's points, or
	// one per world. cfgs[0] also sizes the layer drivers.
	cfgs []manet.Config
	// concurrent says simulations of the job overlap in time (the sweep's
	// two workers), so process-wide deltas around one of them are not its
	// own.
	concurrent bool
	// constants is the frozen configuration as printed in results.
	constants map[string]any
}

// setEngine selects an engine by ParseEngine name for every simulation
// of the job. A name that no longer parses leaves the job on the default
// engine and reports false.
func (j *job) setEngine(name string, shards int) bool {
	e, err := manet.ParseEngine(name)
	if err != nil {
		return false
	}
	for i := range j.cfgs {
		j.cfgs[i].Engine = e
		j.cfgs[i].Shards = 0
		if e.Features().Sharded {
			j.cfgs[i].Shards = shards
		}
	}
	return true
}

// clock adds the time f takes to *d.
func clock(d *time.Duration, f func()) {
	t := time.Now()
	f()
	*d += time.Since(t)
}

// inputRNG derives an independent input stream from -seed. PCG is
// specified by math/rand/v2, so inputs do not depend on the simulator's
// own generator.
func inputRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// worldSeed draws a simulation seed; zero is avoided because
// experiment.Options reads it as "unset".
func worldSeed(rng *rand.Rand) uint64 { return 1 + rng.Uint64N(1<<40) }

func buildSweep(seed uint64, sc scale) *job {
	opts := experiment.Options{
		Hosts:    sweepHosts,
		Requests: sc.req(sweepReqs),
		Replicas: sweepReps,
		BaseSeed: worldSeed(inputRNG(seed, 1)),
		Workers:  benchProcs,
	}
	var cfgs []manet.Config
	for _, mu := range sweepMaps {
		for _, c := range sweepCandidates() {
			c.MapUnits, c.Hosts, c.Requests = mu, opts.Hosts, opts.Requests
			cfgs = append(cfgs, c)
		}
	}
	j := &job{
		ops:        len(cfgs) * opts.Replicas,
		requests:   opts.Requests * opts.Replicas,
		cfgs:       cfgs,
		concurrent: true,
		constants: map[string]any{
			"hosts": opts.Hosts, "requests": opts.Requests, "replicas": opts.Replicas,
			"maps": sweepMaps, "candidates": len(sweepCandidates()), "workers": opts.Workers,
		},
	}
	j.prepare = func(*span) error { return nil }
	j.run = func(root *span) (sums []metrics.Summary, err error) {
		clock(&j.wall, func() {
			if root == nil {
				sums = experiment.RunMatrix(j.cfgs, opts) // panics on failure; runJob reports it
			} else {
				sums, err = tracedMatrix(root, j.cfgs, opts)
			}
		})
		return sums, err
	}
	return j
}

// clusterWorld places clusterCount clusters of n hosts each on a lattice
// of four horizontal bands by two columns, every cluster strictly
// interior to its lattice cell, so no two clusters hear each other and
// the work per broadcast does not depend on the seed (the
// BenchmarkSpeculativeWindows world, regenerated from the seed).
func clusterWorld(rng *rand.Rand, n int) []geom.Point {
	const (
		side    = clusterMap * 500.0
		bands   = 4
		cols    = clusterCount / bands
		perBand = side / bands
		perCol  = side / cols
		spread  = 450.0
		guard   = spread + 510.0
	)
	pts := make([]geom.Point, 0, clusterCount*n)
	for c := 0; c < clusterCount; c++ {
		cy := float64(c%bands)*perBand + guard + rng.Float64()*(perBand-2*guard)
		cx := float64(c/bands)*perCol + guard + rng.Float64()*(perCol-2*guard)
		for i := 0; i < n; i++ {
			pts = append(pts, geom.Point{
				X: cx + (rng.Float64()*2-1)*spread,
				Y: cy + (rng.Float64()*2-1)*spread,
			})
		}
	}
	return pts
}

func buildCluster(seed uint64, sc scale) *job {
	rng := inputRNG(seed, 2)
	pts := clusterWorld(rng, sc.hosts(clusterHosts))
	cfg := manet.Config{
		Hosts:     len(pts),
		MapUnits:  clusterMap,
		Placement: pts,
		Static:    true,
		Scheme:    scheme.Flooding{},
		HelloMode: manet.HelloOff,
		Requests:  sc.req(clusterReqs),
		Seed:      worldSeed(rng),
	}
	return worldsJob([]manet.Config{cfg}, nil, map[string]any{
		"clusters": clusterCount, "hosts": len(pts), "map": clusterMap,
		"requests": cfg.Requests, "scheme": "flooding", "hello": "off",
	})
}

func buildSparse(seed uint64, sc scale) *job {
	cfg := manet.Config{
		Hosts:       sc.hosts(sparseHosts),
		MapUnits:    sparseMap,
		Scheme:      scheme.NeighborCoverage{Label: "NC-DHI"},
		HelloMode:   manet.HelloDynamic,
		MaxSpeedKMH: sparseSpeed,
		Requests:    sc.req(sparseReqs),
		Seed:        worldSeed(inputRNG(seed, 3)),
	}
	return worldsJob([]manet.Config{cfg}, nil, map[string]any{
		"hosts": cfg.Hosts, "map": sparseMap, "requests": cfg.Requests,
		"scheme": "nc", "hello": "dynamic", "max_speed_kmh": sparseSpeed,
	})
}

func buildMega(seed uint64, sc scale) *job {
	base := worldSeed(inputRNG(seed, 4))
	cfgs := make([]manet.Config, megaWorlds)
	for i := range cfgs {
		cfgs[i] = manet.Config{
			Hosts:       sc.hosts(megaHosts),
			MapUnits:    megaMap,
			Scheme:      scheme.Flooding{},
			MaxSpeedKMH: megaSpeed,
			Requests:    sc.req(megaReqs),
			Seed:        base + uint64(i),
		}
	}
	return worldsJob(cfgs, manet.NewArena(), map[string]any{
		"worlds": megaWorlds, "hosts": cfgs[0].Hosts, "map": megaMap,
		"requests": cfgs[0].Requests, "scheme": "flooding", "max_speed_kmh": megaSpeed,
	})
}

// worldsJob runs whole worlds the bench constructs itself: the first in
// prepare, each later one after the previous world has run, because a
// world built through an arena takes over its predecessor's slabs. All
// construction counts as setup; wall is the time inside Network.Run.
func worldsJob(cfgs []manet.Config, arena *manet.Arena, constants map[string]any) *job {
	j := &job{ops: len(cfgs), requests: cfgs[0].Requests, cfgs: cfgs, constants: constants}
	for i := range cfgs {
		cfgs[i].Arena = arena
	}
	var next *manet.Network
	build := func(root *span, i int) (err error) {
		clock(&j.setup, func() { next, err = tracedNew(root, i, j.cfgs[i]) })
		return err
	}
	j.prepare = func(root *span) error { return build(root, 0) }
	j.run = func(root *span) ([]metrics.Summary, error) {
		sums := make([]metrics.Summary, len(j.cfgs))
		for i := range j.cfgs {
			if i > 0 {
				if err := build(root, i); err != nil {
					return nil, err
				}
			}
			n := next
			clock(&j.wall, func() {
				sp := root.child("manet.Run", i)
				sums[i] = n.Run()
				sp.count("events", float64(sums[i].Events)).end()
			})
			j.parallel = append(j.parallel, n.ParallelStats())
		}
		return sums, nil
	}
	return j
}

// firstWorldOnly cuts a worlds job down to its first world, for the
// traced run's engine arms.
func (j *job) firstWorldOnly() {
	j.cfgs, j.ops = j.cfgs[:1], 1
}

func buildCkpt(seed uint64, sc scale) *job {
	cfg := manet.Config{
		Hosts:    ckptHosts,
		MapUnits: ckptMap,
		Scheme:   scheme.AdaptiveCounter{},
		Requests: sc.req(ckptReqs),
		Seed:     worldSeed(inputRNG(seed, 5)),
	}
	j := &job{ops: 1, requests: cfg.Requests, cfgs: []manet.Config{cfg}, constants: map[string]any{
		"hosts": cfg.Hosts, "map": ckptMap, "requests": cfg.Requests, "scheme": "ac",
		"checkpoint_every_s": ckptEvery.Seconds(),
	}}
	// Requests arrive one per second on average after the HELLO warm-up,
	// so half the arrivals is half the simulated time.
	half := sim.Time(0).Add(cfg.WithDefaults().Warmup + sim.Duration(cfg.Requests/2)*sim.Second)
	var first *manet.Network
	j.prepare = func(root *span) (err error) {
		clock(&j.setup, func() { first, err = tracedNew(root, 0, j.cfgs[0]) })
		return err
	}
	j.run = func(root *span) (sums []metrics.Summary, err error) {
		clock(&j.wall, func() { sums, err = checkpointedRun(root, first, j.cfgs[0], half) })
		return sums, err
	}
	return j
}

// checkpointedRun runs first with the checkpoint cadence writing into
// one reused buffer, cancels it once half has passed, then decodes the
// last checkpoint, restores it and runs the rest with the cadence still
// on.
func checkpointedRun(root *span, first *manet.Network, cfg manet.Config, half sim.Time) ([]metrics.Summary, error) {
	var doc bytes.Buffer
	var running *span
	arm := func(n *manet.Network, cancel context.CancelFunc) {
		n.CheckpointEvery = ckptEvery
		n.CheckpointHook = func(now sim.Time) error {
			sp := running.child("manet.Checkpoint", 0)
			doc.Reset()
			err := n.Checkpoint(&doc)
			sp.count("bytes", float64(doc.Len())).end()
			if cancel != nil && now >= half {
				cancel()
			}
			return err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	arm(first, cancel)
	running = root.child("manet.Run", 0)
	_, err := first.RunContext(ctx)
	running.end()
	if err == nil {
		return nil, errors.New("run finished before its half-time checkpoint")
	}
	if !errors.Is(err, context.Canceled) {
		return nil, err
	}
	sp := root.child("snapshot.Read", 0)
	ck, err := snapshot.Read(bytes.NewReader(doc.Bytes()))
	sp.count("bytes", float64(doc.Len())).end()
	if err != nil {
		return nil, err
	}
	sp = root.child("manet.RestoreCheckpoint", 0)
	second, err := manet.RestoreCheckpoint(ck, cfg)
	sp.end()
	if err != nil {
		return nil, err
	}
	arm(second, nil)
	running = root.child("manet.Run", 0)
	sum, err := second.RunContext(context.Background())
	running.count("events", float64(sum.Events)).end()
	return []metrics.Summary{sum}, err
}
