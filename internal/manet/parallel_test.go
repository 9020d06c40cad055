package manet

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// TestBorderCascadeStress pins the border lane under the worst spatial
// case: a map so small relative to the radio radius that the shard
// bands are narrower than a single interaction disk, so every
// transmission in a dense HELLO-plus-broadcast load is cross-band. The
// parallel engine must stay byte-identical to the oracle — all radio
// work runs on the sequential border lane, only the mobility turns
// drain concurrently.
func TestBorderCascadeStress(t *testing.T) {
	base := Config{
		Scheme: scheme.NeighborCoverage{}, MapUnits: 2, Hosts: 80,
		Requests: 25, MaxSpeedKMH: 300, ArrivalSpread: 2 * sim.Second,
	}
	for seed := uint64(1); seed <= 3; seed++ {
		seq := base
		seq.Seed = seed
		seq.Engine = EngineSequentialOracle
		oracle, err := New(seq)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.Run()
		for _, shards := range []int{4, 8} {
			sh := base
			sh.Seed = seed
			sh.Engine = EngineSharded
			sh.Shards = shards
			net, err := New(sh)
			if err != nil {
				t.Fatal(err)
			}
			if !net.parallelEligible() {
				t.Fatal("border stress config unexpectedly ineligible for parallel drains")
			}
			if got := net.Run(); got != want {
				t.Fatalf("seed %d shards %d: border cascade diverged:\nsharded:    %+v\nsequential: %+v",
					seed, shards, got, want)
			}
			st := net.ParallelStats()
			if st.Barriers == 0 {
				t.Fatal("run recorded no barrier windows")
			}
			var drained uint64
			for _, c := range st.ShardExecuted {
				drained += c
			}
			if drained == 0 {
				t.Fatal("no events drained on the parallel lanes (mobile hosts must turn)")
			}
			if st.BorderExecuted == 0 {
				t.Fatal("no events executed on the border lane")
			}
		}
	}
}

// TestHighSpeedShardedMatchesOracle pins the sharded engine far above
// the paper's speeds. At 1000 km/h the barrier window (quarter-radius
// crossing time, ~0.45 s) sits well below the 1 s cap, and the summary
// must still equal the sequential oracle's. The audited variant runs
// the same windows through the sequential path so auditShardBarrier's
// cross-shard invariants check them.
func TestHighSpeedShardedMatchesOracle(t *testing.T) {
	// 24 units = 12 km tall: four bands of 3000 m.
	base := Config{
		Scheme: scheme.Flooding{}, MapUnits: 24, Hosts: 80, Requests: 6,
		MaxSpeedKMH: 1000, Engine: EngineSharded, Shards: 4, Seed: 11,
	}
	seq := base
	seq.Engine = EngineSequentialOracle
	seq.Shards = 0
	oracle, err := New(seq)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Run()

	net, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Run(); got != want {
		t.Fatalf("high-speed run diverged:\nsharded:    %+v\nsequential: %+v", got, want)
	}

	audited := base
	audited.Audit = obs.NewAuditor()
	anet, err := New(audited)
	if err != nil {
		t.Fatal(err)
	}
	if got := anet.Run(); got != want {
		t.Fatalf("audited high-speed run diverged:\naudited:    %+v\nsequential: %+v", got, want)
	}
	if err := audited.Audit.Err(); err != nil {
		t.Fatalf("high-speed windows violated shard barrier invariants: %v", err)
	}
}

// TestParallelStatsAccounting checks the barrier accounting against the
// scheduler's own totals: every executed event is attributed to exactly
// one lane (a shard drain or the border lane).
func TestParallelStatsAccounting(t *testing.T) {
	net, err := New(Config{
		Scheme: scheme.AdaptiveCounter{}, MapUnits: 5, Hosts: 50,
		Requests: 12, Engine: EngineSharded, Shards: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	st := net.ParallelStats()
	var drained uint64
	for _, c := range st.ShardExecuted {
		drained += c
	}
	if total := net.Scheduler().Executed(); drained+st.BorderExecuted != total {
		t.Fatalf("lane attribution %d (shards) + %d (border) != %d executed",
			drained, st.BorderExecuted, total)
	}
	if st.WaitNS < 0 {
		t.Fatalf("negative cumulative wait %d", st.WaitNS)
	}
}
