// Package storm is the public face of the broadcast-storm reproduction.
// It re-exports the handful of types and functions programs need —
// configuration, schemes, the simulator entry points, metrics, and run
// telemetry — so that examples and downstream code import one package
// instead of reaching into internal/ layers.
//
// Quick start:
//
//	sch, _ := storm.ParseScheme("ac")
//	sum, err := storm.Run(sch, 5, 100, 1)
//
// or, with full control over the configuration:
//
//	n, err := storm.New(storm.Config{Scheme: storm.AdaptiveCounter{}, MapUnits: 7})
//	sum := n.Run()
//
// Everything here is an alias or thin wrapper: a storm.Config IS a
// manet.Config, so values flow freely between this package and code
// (such as internal/experiment) that uses the internal layers directly.
package storm

import (
	"context"
	"io"
	"time"

	"repro/internal/check"
	"repro/internal/geom"
	"repro/internal/manet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Simulation configuration and results.
type (
	// Config configures one broadcast-storm simulation (see manet.Config
	// for every knob; the zero value of most fields means "paper default").
	Config = manet.Config
	// Network is a configured simulation; call Run or RunContext to
	// execute it.
	Network = manet.Network
	// Summary holds the paper's metrics (RE, SRB, latency, ...) for a run.
	Summary = metrics.Summary
	// HelloMode selects how hosts run neighbor discovery.
	HelloMode = manet.HelloMode
	// Engine selects the simulation engine (sequential oracle, the
	// spatially sharded engine, or the speculative validate-or-replay
	// engine); all engines produce byte-identical summaries. Select via
	// Config.Engine and Config.Shards.
	Engine = manet.Engine
	// ParallelStats reports how a sharded or speculative run executed
	// its barrier windows (Network.ParallelStats).
	ParallelStats = manet.ParallelStats
	// Features describes the parallelism choices an engine runs with
	// (Engine.Features).
	Features = manet.Features
)

// Rebroadcast schemes. Scheme is the interface; the concrete types are
// the paper's suppression policies.
type (
	Scheme           = scheme.Scheme
	Flooding         = scheme.Flooding
	Probabilistic    = scheme.Probabilistic
	Counter          = scheme.Counter
	Distance         = scheme.Distance
	Location         = scheme.Location
	Cluster          = scheme.Cluster
	AdaptiveCounter  = scheme.AdaptiveCounter
	AdaptiveLocation = scheme.AdaptiveLocation
	NeighborCoverage = scheme.NeighborCoverage
	// CounterFunc and LocationFunc are the adaptive schemes' threshold
	// functions C(n) and A(n).
	CounterFunc  = scheme.CounterFunc
	LocationFunc = scheme.LocationFunc
)

// Identities, geometry, and simulated time.
type (
	Point       = geom.Point
	NodeID      = packet.NodeID
	BroadcastID = packet.BroadcastID
	Time        = sim.Time
	Duration    = sim.Duration
	RNG         = sim.RNG
)

// Route-discovery experiments (AODV-lite over the storm substrate).
type (
	RoutingConfig  = routing.Config
	RoutingNetwork = routing.Network
	RoutingResult  = routing.Result
)

// Collector gathers run telemetry; attach one via Config.Telemetry.
type Collector = obs.Collector

// Auditor is the runtime invariant auditor; attach one via Config.Audit
// to have every event of a run checked for conservation-law violations
// (packet accounting, scheduler order, pool lifecycle, neighbor-table
// soundness, metric sanity). Auditing is observation-only: the Summary
// is byte-identical with or without it. Inspect Err, Ok, Violations, or
// Total after the run.
type Auditor = check.Auditor

// Violation is one invariant breach an Auditor observed.
type Violation = check.Violation

// Simulated-time units.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
)

// Hello modes.
const (
	HelloOff     = manet.HelloOff
	HelloFixed   = manet.HelloFixed
	HelloDynamic = manet.HelloDynamic
)

// Engines (see Config.Engine). EngineAuto — the zero value — resolves
// to the sharded engine when Config.Shards > 0 and to the sequential
// oracle otherwise, so existing configurations keep their behavior.
const (
	EngineAuto             = manet.EngineAuto
	EngineSequentialOracle = manet.EngineSequentialOracle
	EngineSharded          = manet.EngineSharded
	// EngineSpeculative is the sharded engine with optimistic radio
	// windows on static worlds: barrier windows execute band-parallel
	// over an in-memory micro-checkpoint and either validate (commit in
	// oracle order) or roll back and replay sequentially. Summaries stay
	// byte-identical to the oracle either way.
	EngineSpeculative = manet.EngineSpeculative
	// DefaultShards is the shard count EngineSharded uses when
	// Config.Shards is zero.
	DefaultShards = manet.DefaultShards
)

// ParseEngine maps an engine name ("auto", "sequential-oracle",
// "sharded", "speculative") onto an Engine, the way the cmd tools
// accept it.
func ParseEngine(name string) (Engine, error) { return manet.ParseEngine(name) }

// Arena retains a world's bulk allocations across runs, on every engine;
// pass one through Config.Arena when building many same-size worlds one
// after another. An arena backs one live Network at a time and is not
// safe for concurrent use (see manet.Arena for the ownership contract).
type Arena = manet.Arena

// NewArena returns an empty arena for Config.Arena.
func NewArena() *Arena { return manet.NewArena() }

// Result wraps a run's Summary with how it was executed: the wall-clock
// time the run took and the engine and shard count the configuration
// resolved to.
type Result struct {
	Summary Summary
	Elapsed time.Duration // wall-clock run time (excludes network construction)
	Engine  Engine        // resolved engine (never EngineAuto)
	Shards  int           // resolved shard count, 0 for sequential engines
}

// RunContext builds a network from cfg and executes it under ctx. The
// run checks ctx cooperatively at the engine's conservative barrier
// windows — never inside an event — and on cancellation returns ctx's
// error with a zero Result; worker pools are released either way.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	n, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	sum, err := n.RunContext(ctx)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Summary: sum,
		Elapsed: time.Since(start),
		Engine:  n.Engine(),
		Shards:  n.ShardCount(),
	}, nil
}

// New builds a simulation network from a validated configuration.
func New(cfg Config) (*Network, error) { return manet.New(cfg) }

// Run simulates one broadcast workload with the paper's defaults: hosts
// roaming a units x units map (one unit = the 500 m radio radius),
// issuing requests broadcasts under sch. It is the programmatic
// equivalent of cmd/stormsim.
func Run(sch Scheme, units, requests int, seed uint64) (Summary, error) {
	n, err := New(Config{
		Scheme:   sch,
		MapUnits: units,
		Requests: requests,
		Seed:     seed,
	})
	if err != nil {
		return Summary{}, err
	}
	return n.Run(), nil
}

// Schemes returns one representative instance of every scheme in the
// study, in the paper's presentation order: the baselines from the
// MOBICOM '99 work and this paper's adaptive schemes.
func Schemes() []Scheme {
	return []Scheme{
		Flooding{},
		Probabilistic{P: 0.7},
		Counter{C: 3},
		Distance{D: 40},
		Location{A: 0.0469},
		Cluster{},
		AdaptiveCounter{},
		AdaptiveLocation{},
		NeighborCoverage{},
	}
}

// ParseScheme builds a scheme from its textual spec (e.g. "flooding",
// "counter:C=3", "al:n1=6,n2=12") — the same syntax every cmd tool uses.
func ParseScheme(spec string) (Scheme, error) { return scheme.Parse(spec) }

// SchemeNames returns the canonical spec names ParseScheme accepts.
func SchemeNames() []string { return scheme.Names() }

// SchemeUsage returns a multi-line description of the spec syntax.
func SchemeUsage() string { return scheme.Usage() }

// NewRouting builds a route-discovery experiment network.
func NewRouting(cfg RoutingConfig) (*RoutingNetwork, error) { return routing.New(cfg) }

// NewRNG returns the simulator's deterministic random source.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// NewCollector creates a telemetry collector sampling every tick of
// simulated time (tick <= 0 uses the default).
func NewCollector(tick Duration) *Collector { return obs.New(tick) }

// NewAuditor creates a runtime invariant auditor for one run; attach it
// via Config.Audit.
func NewAuditor() *Auditor { return check.New() }

// PaperMaxSpeedKMH is the paper's speed rule: 10 km/h per map unit.
func PaperMaxSpeedKMH(units int) float64 { return manet.PaperMaxSpeedKMH(units) }

// Checkpoint is the decoded form of a run checkpoint; RestoreCheckpoint
// resumes from one (decode with ReadCheckpoint), and a single decoded
// document can seed several diverging what-if runs.
type Checkpoint = snapshot.Checkpoint

// ReadCheckpoint decodes a checkpoint document from r (the inverse of
// Network.Checkpoint). The codec is strict: truncated, trailing, or
// non-canonical input is an error.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) { return snapshot.Read(r) }

// RestoreNetwork reads a checkpoint written by Network.Checkpoint and
// rebuilds the network it captured, ready for Run/RunContext to carry
// the simulation to completion. cfg must be the configuration of the
// checkpointed run (engine and shard choices may differ only in how
// they are spelled, not in what they resolve to); a contradictory
// configuration is an error, never a silent divergence. The resumed
// run's Summary is byte-identical to the uninterrupted run's.
func RestoreNetwork(r io.Reader, cfg Config) (*Network, error) {
	return manet.RestoreNetwork(r, cfg)
}

// RestoreCheckpoint rebuilds a network from an already-decoded
// checkpoint document. Restoring the same document several times forks
// the captured instant: combined with Network.DivergeSeed, each fork
// explores a different future of the identical past.
func RestoreCheckpoint(ck *Checkpoint, cfg Config) (*Network, error) {
	return manet.RestoreCheckpoint(ck, cfg)
}
