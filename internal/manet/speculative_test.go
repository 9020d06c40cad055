package manet

import (
	"runtime"
	"testing"

	"repro/internal/scheme"
)

// speculativeCases is the static-world matrix the speculative engine
// must reproduce byte-for-byte. The sparse cases sit below the
// connectivity threshold, so broadcast waves stay band-local and most
// segments validate; the dense cases have bands narrower than one
// interaction disk at every tested shard count, so every segment that
// carries a transmission is forced to roll back and replay — the
// equivalence contract must hold on both ends.
var speculativeCases = []struct {
	name string
	cfg  Config
}{
	{"flooding-sparse", Config{
		Scheme: scheme.Flooding{}, MapUnits: 6, Radius: 200, Hosts: 120,
		Requests: 12, Static: true,
	}},
	{"counter-sparse", Config{
		Scheme: scheme.Counter{C: 2}, MapUnits: 6, Radius: 200, Hosts: 140,
		Requests: 12, Static: true,
	}},
	{"distance-sparse", Config{
		Scheme: scheme.Distance{D: 120}, MapUnits: 6, Radius: 250, Hosts: 120,
		Requests: 10, Static: true,
	}},
	{"location-sparse", Config{
		Scheme: scheme.Location{A: 0.01}, MapUnits: 6, Radius: 250, Hosts: 120,
		Requests: 10, Static: true,
	}},
	{"probabilistic-conflict", Config{
		Scheme: scheme.Probabilistic{P: 0.5}, MapUnits: 3, Radius: 500, Hosts: 40,
		Requests: 10, Static: true,
	}},
	{"flooding-conflict", Config{
		Scheme: scheme.Flooding{}, MapUnits: 3, Radius: 500, Hosts: 40,
		Requests: 10, Static: true,
	}},
}

// TestSpeculativeMatchesSequential pins the tentpole contract: the
// speculative engine's validate-or-replay windows are unobservable, so
// for any shard count and any GOMAXPROCS its Summary must equal the
// sequential oracle's field for field — whether a window commits (the
// lanes' effects merge in oracle order) or rolls back (the
// micro-checkpoint restore plus sequential replay reproduces the
// window from scratch). Under -race in CI this is also the data-race
// check on the lane-state partitioning.
func TestSpeculativeMatchesSequential(t *testing.T) {
	arena := NewArena()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range speculativeCases {
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
						sp := tc.cfg
						sp.Seed = seed
						sp.Engine = EngineSpeculative
						sp.Shards = shards
						sp.Arena = arena
						net, err := New(sp)
						if err != nil {
							t.Fatal(err)
						}
						if net.Engine() != EngineSpeculative || net.ShardCount() != shards {
							t.Fatalf("resolved engine %v/%d, want speculative/%d",
								net.Engine(), net.ShardCount(), shards)
						}
						if got := net.Run(); got != want {
							st := net.ParallelStats()
							t.Fatalf("seed %d procs %d shards %d: summaries diverge (spec %d/%d/%d):\nspeculative: %+v\nsequential:  %+v",
								seed, procs, shards, st.Speculated, st.Committed, st.RolledBack, got, want)
						}
					}
				}
			}
		})
	}
}

// TestSpeculativeCommits pins that the engine actually speculates on a
// favorable static world: bands much wider than the interaction disk
// and sub-threshold density keep waves band-local, so segments must
// commit and the border-lane share of executed events must drop below
// the sharded engine's static baseline of 1.0.
func TestSpeculativeCommits(t *testing.T) {
	cfg := speculativeCases[0].cfg // flooding-sparse
	cfg.Seed = 1
	cfg.Engine = EngineSpeculative
	cfg.Shards = 4
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	st := net.ParallelStats()
	if st.Speculated == 0 || st.Committed == 0 {
		t.Fatalf("no committed speculation on a favorable world: %+v", st)
	}
	if rate := st.CommitRate(); rate < 0.5 {
		t.Errorf("commit rate %.2f < 0.5 on a favorable world: %+v", rate, st)
	}
	if share := st.BorderShare(); share >= 1 {
		t.Errorf("border share %.2f — no event ever ran on a lane: %+v", share, st)
	}
	var lanes uint64
	for _, c := range st.ShardExecuted {
		lanes += c
	}
	t.Logf("speculated=%d committed=%d rolledBack=%d laneEvents=%d borderEvents=%d borderShare=%.3f",
		st.Speculated, st.Committed, st.RolledBack, lanes, st.BorderExecuted, st.BorderShare())
}

// TestSpeculativeForcedRollback pins the replay path. On the
// conflict-saturated worlds (bands narrower than one interaction disk)
// most windows refuse to even open — an in-flight transmission spans a
// border, so BeginSpecWindow declines before any speculative state
// exists. The checkpoint-restore path needs a window that opens in an
// airtime gap and then transmits across a border inside a lane; on the
// sparse world that happens at every one of these seed/shard points
// (the counters are deterministic — conflict detection depends only on
// simulation state, never on wall-clock interleaving), so each run
// must record at least one rollback and still match the oracle.
func TestSpeculativeForcedRollback(t *testing.T) {
	base := speculativeCases[0].cfg // flooding-sparse
	for seed := uint64(1); seed <= 2; seed++ {
		seq := base
		seq.Seed = seed
		oracle, err := New(seq)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.Run()
		for _, shards := range []int{2, 4} {
			cfg := base
			cfg.Seed = seed
			cfg.Engine = EngineSpeculative
			cfg.Shards = shards
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := net.Run()
			st := net.ParallelStats()
			if st.RolledBack == 0 {
				t.Errorf("seed %d shards %d: no rollback exercised: %+v", seed, shards, st)
			}
			if got != want {
				t.Errorf("seed %d shards %d: post-rollback run diverged:\nspeculative: %+v\nsequential:  %+v",
					seed, shards, got, want)
			}
			t.Logf("seed=%d shards=%d speculated=%d committed=%d rolledBack=%d",
				seed, shards, st.Speculated, st.Committed, st.RolledBack)
		}
	}
}

// TestSpeculativeDegradesGracefully pins that EngineSpeculative on an
// ineligible configuration (a mobile world) silently behaves like the
// sharded engine: same bytes as the oracle, no speculation attempted.
func TestSpeculativeDegradesGracefully(t *testing.T) {
	cfg := Config{Scheme: scheme.Flooding{}, MapUnits: 3, Hosts: 40, Requests: 10, Seed: 2}
	oracle, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Run()

	cfg.Engine = EngineSpeculative
	cfg.Shards = 4
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Run(); got != want {
		t.Fatalf("mobile speculative run diverged:\nspeculative: %+v\nsequential:  %+v", got, want)
	}
	st := net.ParallelStats()
	if st.Speculated != 0 || st.Committed != 0 || st.RolledBack != 0 {
		t.Fatalf("ineligible run attempted speculation: %+v", st)
	}
}

// TestSpeculativeWindowDecisions pins which windows the engine
// speculates, commits and rolls back, and how many events its lanes
// fire. A summary cannot tell these apart — a rolled-back window
// replays to the same bytes — so a refactor of the lane state that
// changed the decisions would pass every summary check. The counters
// depend only on simulation state (see TestSpeculativeForcedRollback),
// so they are exact at any GOMAXPROCS.
func TestSpeculativeWindowDecisions(t *testing.T) {
	type decisions struct{ speculated, committed, rolledBack, laneEvents int }
	// Read at the commit before the lanes' radio and pool state became
	// data the lane selects; shards 2, then shards 4.
	want := map[string][2]decisions{
		"flooding-sparse":        {{8, 7, 1, 46}, {7, 6, 1, 36}},
		"counter-sparse":         {{7, 6, 1, 38}, {5, 4, 1, 22}},
		"distance-sparse":        {{4, 2, 2, 15}, {4, 2, 2, 15}},
		"location-sparse":        {{4, 2, 2, 15}, {4, 2, 2, 15}},
		"probabilistic-conflict": {{2, 0, 2, 0}, {0, 0, 0, 0}},
		"flooding-conflict":      {{2, 0, 2, 0}, {0, 0, 0, 0}},
	}
	for _, tc := range speculativeCases {
		for i, shards := range []int{2, 4} {
			cfg := tc.cfg
			cfg.Seed = 1
			cfg.Engine = EngineSpeculative
			cfg.Shards = shards
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			net.Run()
			st := net.ParallelStats()
			got := decisions{st.Speculated, st.Committed, st.RolledBack, 0}
			for _, c := range st.ShardExecuted {
				got.laneEvents += int(c)
			}
			if got != want[tc.name][i] {
				t.Errorf("%s shards %d: windows %+v, want %+v", tc.name, shards, got, want[tc.name][i])
			}
		}
	}
}
