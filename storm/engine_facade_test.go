package storm_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/storm"
)

// baseEngineConfig is the workload every engine-selection variant below
// must reproduce byte-for-byte.
func baseEngineConfig(seed uint64) storm.Config {
	return storm.Config{
		Scheme: storm.AdaptiveCounter{}, MapUnits: 3, Hosts: 40, Requests: 10,
		Seed: seed,
	}
}

// TestEngineSelectorMatchesDefault proves engine selection through the
// facade is model-neutral: every explicit Engine/Shards/Arena selection
// produces a summary byte-identical to the default configuration's.
func TestEngineSelectorMatchesDefault(t *testing.T) {
	// Shared across seeds, so the second seed's run reuses the first's
	// slabs through the facade-level Arena plumbing.
	arena := storm.NewArena()
	for seed := uint64(1); seed <= 2; seed++ {
		ref, err := storm.New(baseEngineConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Run()

		variants := []struct {
			name string
			mut  func(*storm.Config)
		}{
			{"engine-auto", func(c *storm.Config) { c.Engine = storm.EngineAuto }},
			{"engine-sequential-oracle", func(c *storm.Config) { c.Engine = storm.EngineSequentialOracle }},
			{"engine-sharded", func(c *storm.Config) { c.Engine = storm.EngineSharded }},
			{"engine-sharded-arena", func(c *storm.Config) {
				c.Engine = storm.EngineSharded
				c.Arena = arena
			}},
			{"auto-shards-4", func(c *storm.Config) { c.Shards = 4 }},
		}
		for _, v := range variants {
			t.Run(v.name, func(t *testing.T) {
				cfg := baseEngineConfig(seed)
				v.mut(&cfg)
				n, err := storm.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := n.Run(); got != want {
					t.Fatalf("seed %d: summary diverges from the default:\ngot:  %+v\nwant: %+v",
						seed, got, want)
				}
			})
		}
	}
}

// TestRunContextFacade covers the storm.RunContext wrapper: the Result
// metadata reflects the resolved engine, the summary matches Run, and
// cancellation both surfaces the context error and releases the sharded
// engine's worker goroutines (no leaks).
func TestRunContextFacade(t *testing.T) {
	cfg := baseEngineConfig(3)
	ref, err := storm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Run()

	seqRes, err := storm.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.Summary != want {
		t.Fatalf("RunContext summary diverges:\ngot:  %+v\nwant: %+v", seqRes.Summary, want)
	}
	if seqRes.Engine != storm.EngineSequentialOracle || seqRes.Shards != 0 {
		t.Fatalf("sequential Result metadata = %v/%d", seqRes.Engine, seqRes.Shards)
	}
	if seqRes.Elapsed <= 0 {
		t.Fatalf("non-positive elapsed %v", seqRes.Elapsed)
	}

	before := runtime.NumGoroutine()
	sh := cfg
	sh.Shards = 2
	shRes, err := storm.RunContext(context.Background(), sh)
	if err != nil {
		t.Fatal(err)
	}
	if shRes.Summary != want {
		t.Fatalf("sharded RunContext summary diverges:\ngot:  %+v\nwant: %+v", shRes.Summary, want)
	}
	if shRes.Engine != storm.EngineSharded || shRes.Shards != 2 {
		t.Fatalf("sharded Result metadata = %v/%d", shRes.Engine, shRes.Shards)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := storm.RunContext(ctx, sh); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunContext returned %v, want context.Canceled", err)
	}

	// The sharded runs' pool workers must all have exited.
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
