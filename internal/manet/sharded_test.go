package manet

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// shardedCases is the configuration matrix the sharded engine must
// reproduce byte-for-byte: every mobility model, HELLO mode, scheme
// family, and channel impairment the sequential oracle supports without
// the deprecated Disable* switches.
var shardedCases = []struct {
	name string
	cfg  Config
}{
	{"flooding-mobile", Config{
		Scheme: scheme.Flooding{}, MapUnits: 3, Hosts: 40, Requests: 12,
	}},
	{"adaptive-counter-hello", Config{
		Scheme: scheme.AdaptiveCounter{}, MapUnits: 5, Hosts: 50, Requests: 12,
	}},
	{"location-waypoint", Config{
		Scheme: scheme.AdaptiveLocation{}, MapUnits: 5, Hosts: 40, Requests: 10,
		Mobility: MobilityWaypoint,
	}},
	{"neighbor-coverage-groups", Config{ // named when it moved in groups
		Scheme: scheme.NeighborCoverage{}, MapUnits: 3, Hosts: 30, Requests: 8,
	}},
	{"repair-dynamic-hello", Config{
		Scheme: scheme.AdaptiveCounter{}, MapUnits: 5, Hosts: 30, Requests: 8,
		HelloMode: HelloDynamic, Repair: true, Warmup: 5 * sim.Second,
	}},
	{"flooding-static", Config{
		Scheme: scheme.Flooding{}, MapUnits: 3, Hosts: 40, Requests: 10,
		Static: true,
	}},
	{"counter-loss-capture", Config{
		Scheme: scheme.AdaptiveCounter{}, MapUnits: 3, Hosts: 40, Requests: 10,
		LossRate: 0.1, CaptureRatio: 2,
	}},
}

// TestShardedMatchesSequential pins the tentpole contract: the sharded
// engine is a pure reorganization of the same event-driven model, so
// for any shard count its Summary must equal the sequential oracle's
// field for field. Any divergence means a shard wheel reordered events,
// a parallel construction phase perturbed an RNG stream, a concurrent
// barrier-window drain perturbed a mobility stream, or the reachability
// walk miscounted a component.
//
// The matrix runs at GOMAXPROCS 1 and 4: the parallel barrier drain
// must produce the same bytes whether its workers time-slice one core
// or race each other on four (under -race in CI, this is also the
// data-race check on the lane-state partitioning).
//
// Every sharded run threads one shared Arena, so the matrix also pins
// slab reuse: each construction rebuilds on the previous world's
// memory (when shapes match) and must still be byte-identical to the
// freshly allocated oracle.
func TestShardedMatchesSequential(t *testing.T) {
	arena := NewArena()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range shardedCases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				seq := tc.cfg
				seq.Seed = seed
				seq.Engine = EngineSequentialOracle
				oracle, err := New(seq)
				if err != nil {
					t.Fatal(err)
				}
				want := oracle.Run()
				for _, procs := range []int{1, 4} {
					runtime.GOMAXPROCS(procs)
					for _, shards := range []int{1, 2, 4, 8} {
						sh := tc.cfg
						sh.Seed = seed
						sh.Engine = EngineSharded
						sh.Shards = shards
						sh.Arena = arena
						net, err := New(sh)
						if err != nil {
							t.Fatal(err)
						}
						if net.Engine() != EngineSharded || net.ShardCount() != shards {
							t.Fatalf("resolved engine %v/%d, want sharded/%d",
								net.Engine(), net.ShardCount(), shards)
						}
						if got := net.Run(); got != want {
							t.Fatalf("seed %d procs %d shards %d: summaries diverge:\nsharded:    %+v\nsequential: %+v",
								seed, procs, shards, got, want)
						}
					}
				}
			}
		})
	}
}

// TestArenaOnDefaultEngine pins that Config.Arena means the same thing
// on the engine the paper sweep runs on: each of the host builder's three
// one-at-a-time mover cases, built on the default engine into an arena —
// twice, so the second world takes over the first one's slabs, and with
// one arena across the cases, so each also inherits another mover
// kind's leftovers — gives the summary it gives without an arena.
func TestArenaOnDefaultEngine(t *testing.T) {
	const hosts = 30
	placement := make([]geom.Point, hosts)
	for i := range placement {
		placement[i] = geom.Point{X: 100 + 250*float64(i%6), Y: 100 + 300*float64(i/6)}
	}
	base := Config{Scheme: scheme.AdaptiveCounter{}, MapUnits: 3, Hosts: hosts, Requests: 8, Seed: 4}
	arena := NewArena()
	for _, tc := range []struct {
		name  string
		apply func(*Config)
	}{
		{"static", func(c *Config) { c.Static = true }},
		{"placement", func(c *Config) { c.Static, c.Placement = true, placement }},
		{"waypoint", func(c *Config) { c.Mobility = MobilityWaypoint }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.apply(&cfg)
			plain, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := plain.Run()
			cfg.Arena = arena
			for round := 0; round < 2; round++ {
				net, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if net.Engine() != EngineSequentialOracle || net.ShardCount() != 0 {
					t.Fatalf("resolved engine %v/%d, want the default", net.Engine(), net.ShardCount())
				}
				if !arena.fits(hosts, false) {
					t.Fatal("the default engine did not park its slabs in the arena")
				}
				if got := net.Run(); got != want {
					t.Fatalf("round %d: arena-built summary diverges:\narena: %+v\nplain: %+v", round, got, want)
				}
			}
		})
	}
}

// TestShardedAuditClean runs the sharded engine under the invariant
// auditor — including the cross-shard barrier checks — and requires a
// violation-free run with the same summary as an unaudited one.
func TestShardedAuditClean(t *testing.T) {
	base := Config{
		Scheme: scheme.AdaptiveCounter{}, MapUnits: 5, Hosts: 50, Requests: 12,
		Engine: EngineSharded, Shards: 4, Seed: 7,
	}
	plain, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	want := plain.Run()

	audited := base
	audited.Audit = obs.NewAuditor()
	net, err := New(audited)
	if err != nil {
		t.Fatal(err)
	}
	got := net.Run()
	if err := audited.Audit.Err(); err != nil {
		t.Fatalf("audited sharded run reported violations: %v", err)
	}
	if !audited.Audit.SummaryChecked() {
		t.Fatal("auditor never checked the summary")
	}
	if got != want {
		t.Fatalf("audit perturbed the sharded run:\naudited:   %+v\nunaudited: %+v", got, want)
	}
}

// TestEngineResolution pins the Engine/Shards API: auto selection,
// explicit engines, and every contradiction Validate must reject.
func TestEngineResolution(t *testing.T) {
	ok := []struct {
		name    string
		cfg     Config
		engine  Engine
		shards  int
		sharded bool
	}{
		{"auto-default", Config{}, EngineSequentialOracle, 0, false},
		{"auto-with-shards", Config{Shards: 2}, EngineSharded, 2, true},
		{"sharded-default-shards", Config{Engine: EngineSharded}, EngineSharded, DefaultShards, true},
	}
	for _, tc := range ok {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.WithDefaults()
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			engine, shards, err := cfg.resolveEngine()
			if err != nil || engine != tc.engine || shards != tc.shards {
				t.Fatalf("resolved (%v, %d, %v), want (%v, %d)", engine, shards, err, tc.engine, tc.shards)
			}
			if f := engine.Features(); f.Sharded != tc.sharded {
				t.Fatalf("features %+v, want sharded=%v", f, tc.sharded)
			}
		})
	}

	bad := []struct {
		name string
		cfg  Config
	}{
		{"oracle-with-shards", Config{Engine: EngineSequentialOracle, Shards: 4}},
		{"non-power-of-two", Config{Shards: 3}},
		{"negative-shards", Config{Shards: -1}},
		{"oversized-shards", Config{Shards: 128}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.WithDefaults().Validate(); err == nil {
				t.Fatal("Validate accepted a contradictory engine selection")
			}
		})
	}
}

// countCtx cancels itself after a fixed number of barrier checks, which
// makes mid-run cancellation deterministic (no wall-clock races).
type countCtx struct {
	context.Context
	checks atomic.Int32
	limit  int32
}

func (c *countCtx) Err() error {
	if c.checks.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// TestRunContextCancel covers cooperative cancellation: an already
// cancelled context stops before any event, a mid-run cancellation
// stops at a barrier short of the configured horizon, and in both cases
// the worker pool's goroutines are released.
func TestRunContextCancel(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net, err := New(Config{Hosts: 30, Requests: 10, Shards: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
	}
	if got := net.Scheduler().Executed(); got != 0 {
		t.Fatalf("pre-cancelled run executed %d events", got)
	}

	mid, err := New(Config{Hosts: 30, Requests: 10, Shards: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cc := &countCtx{Context: context.Background(), limit: 5}
	if _, err := mid.RunContext(cc); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancellation returned %v, want context.Canceled", err)
	}
	full, err := New(Config{Hosts: 30, Requests: 10, Shards: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if mid.Scheduler().Executed() >= full.Scheduler().Executed() {
		t.Fatalf("cancelled run executed %d events, full run %d — cancellation did not stop early",
			mid.Scheduler().Executed(), full.Scheduler().Executed())
	}

	// Pool goroutines exit on Close (deferred by RunContext); give the
	// runtime a beat to reap them before comparing.
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i > 100 {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
