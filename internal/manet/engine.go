package manet

import "fmt"

// Engine selects the simulation engine a Network runs on. All engines
// execute the identical event stream — (time, seq) order is part of the
// model contract — so summaries are byte-identical across engines; the
// selector only changes which data structures and how many worker
// goroutines do the work. The zero value (EngineAuto) picks an engine
// from the rest of the configuration, which keeps existing configs
// working unchanged.
type Engine int

const (
	// EngineAuto resolves to EngineSharded when Config.Shards > 0 and to
	// EngineSequentialOracle otherwise.
	EngineAuto Engine = iota

	// EngineSequentialOracle is the single-threaded reference engine:
	// one ladder queue, no worker pool. It is the oracle the sharded
	// engine's equivalence tests compare against.
	EngineSequentialOracle

	// EngineSharded partitions the map into power-of-two shard regions
	// (bands of spatial-grid macro-cell rows). Each shard owns a
	// calendar-wheel scheduler for its hosts' mobility events, merged
	// with the central ladder in strict (time, seq) order, and a worker
	// in the shared pool that parallelizes construction, snapshot
	// rebuilds, and reachability walks with bounded-channel border
	// exchange.
	EngineSharded

	// EngineSpeculative is the sharded engine plus optimistic barrier
	// windows: on an eligible static world (see speculate.go) each window
	// first takes an in-memory micro-checkpoint, then one lane per shard
	// band drains its band's MAC/PHY/assessment events concurrently while
	// a conflict detector flags any radio interaction reaching across a
	// band border. A validated window commits with scheduler, channel,
	// and record state byte-identical to the sequential merged drain; a
	// conflicted window restores the micro-checkpoint and replays
	// sequentially, so every run — any shard count, any GOMAXPROCS —
	// reproduces the oracle summary exactly. Configurations outside the
	// eligible set degrade per-window to EngineSharded's border-lane
	// execution.
	EngineSpeculative
)

// String names the engine the way ParseEngine accepts it.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineSequentialOracle:
		return "sequential-oracle"
	case EngineSharded:
		return "sharded"
	case EngineSpeculative:
		return "speculative"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// ParseEngine maps a command-line engine name onto an Engine.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", "auto":
		return EngineAuto, nil
	case "sequential", "sequential-oracle", "oracle":
		return EngineSequentialOracle, nil
	case "sharded":
		return EngineSharded, nil
	case "speculative":
		return EngineSpeculative, nil
	}
	return EngineAuto, fmt.Errorf("manet: unknown engine %q (want auto, sequential-oracle, sharded, or speculative)", name)
}

// Features describes the parallelism choices an engine runs with.
type Features struct {
	Sharded     bool // shard wheels + worker pool
	Speculative bool // validate-or-replay band windows over micro-checkpoints
}

// Features reports what the engine uses.
func (e Engine) Features() Features {
	return Features{
		Sharded:     e == EngineSharded || e == EngineSpeculative,
		Speculative: e == EngineSpeculative,
	}
}

// DefaultShards is the shard count EngineSharded uses when Config.Shards
// is zero. It is a fixed constant rather than a GOMAXPROCS derivation so
// a config resolves identically on every machine; results are
// shard-count independent regardless.
const DefaultShards = 4

// maxShards bounds the shard count; beyond this the per-shard wheels and
// border channels cost more than any plausible hardware gives back.
const maxShards = 64

// resolveEngine maps (Engine, Shards) onto the concrete engine and shard
// count, rejecting contradictions. The returned shard count is 0 for the
// sequential engine.
func (c Config) resolveEngine() (Engine, int, error) {
	if c.Shards < 0 {
		return 0, 0, fmt.Errorf("manet: negative shard count %d", c.Shards)
	}
	if c.Shards > maxShards {
		return 0, 0, fmt.Errorf("manet: shard count %d exceeds the maximum %d", c.Shards, maxShards)
	}
	if c.Shards > 0 && c.Shards&(c.Shards-1) != 0 {
		return 0, 0, fmt.Errorf("manet: shard count %d is not a power of two", c.Shards)
	}
	switch c.Engine {
	case EngineAuto:
		if c.Shards == 0 {
			return EngineSequentialOracle, 0, nil
		}
		return EngineSharded, c.Shards, nil
	case EngineSequentialOracle:
		if c.Shards > 0 {
			return 0, 0, fmt.Errorf("manet: EngineSequentialOracle cannot run %d shards; leave Shards at 0 or select EngineSharded", c.Shards)
		}
		return EngineSequentialOracle, 0, nil
	case EngineSharded, EngineSpeculative:
		if c.Shards == 0 {
			return c.Engine, DefaultShards, nil
		}
		return c.Engine, c.Shards, nil
	default:
		return 0, 0, fmt.Errorf("manet: unknown engine %v", c.Engine)
	}
}
