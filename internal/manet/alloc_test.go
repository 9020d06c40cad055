package manet

import (
	"context"
	"io"
	"runtime"
	"testing"

	"repro/internal/scheme"
	"repro/internal/sim"
)

// TestAllocationBudgets holds the manet layer's machine-independent
// allocation budgets. All are steady-state figures: each row first
// makes one unmeasured pass so pools and slabs are primed, then counts
// heap objects (runtime.MemStats.Mallocs) around the measured call.
func TestAllocationBudgets(t *testing.T) {
	mustNew := func(t *testing.T, cfg Config) *Network {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	mallocsAround := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs)
	}
	// The arena: construction builds hosts in slabs and a second
	// same-shape New takes them back from the arena, so nothing in it
	// may allocate per host — with or without a pool and shard wheels.
	warmArenaNew := func(engine Engine) func(t *testing.T) (float64, float64) {
		return func(t *testing.T) (float64, float64) {
			cfg := Config{
				Hosts: 10_000, MapUnits: 95, MaxSpeedKMH: 50, Scheme: scheme.Flooding{},
				Requests: 1, Engine: engine, Arena: NewArena(), Seed: 1,
			}
			mustNew(t, cfg).Close()
			cfg.Seed = 2
			var n *Network
			mallocs := mallocsAround(func() { n = mustNew(t, cfg) })
			n.Close()
			return mallocs, float64(cfg.Hosts)
		}
	}

	for _, row := range []struct {
		name string
		per  string
		// measure returns the objects allocated by the guarded call and
		// the number of units they are budgeted against.
		measure func(t *testing.T) (mallocs, units float64)
	}{
		// The event core: a paper-scale run allocates at most once per
		// executed event once the event, frame, judge and record pools
		// have been through one run.
		{"Run at AC 5x5", "event", func(t *testing.T) (float64, float64) {
			cfg := Config{Scheme: scheme.AdaptiveCounter{}, MapUnits: 5, Requests: 20, Seed: 1}
			mustNew(t, cfg).Run()
			cfg.Seed = 2
			n := mustNew(t, cfg)
			var events uint64
			mallocs := mallocsAround(func() { events = n.Run().Events })
			return mallocs, float64(events)
		}},
		{"New into a warm Arena", "host", warmArenaNew(EngineSharded)},
		{"New into a warm Arena, default engine", "host", warmArenaNew(EngineAuto)},
	} {
		t.Run(row.name, func(t *testing.T) {
			mallocs, units := row.measure(t)
			t.Logf("%.0f allocs / %.0f %ss = %.3f", mallocs, units, row.per, mallocs/units)
			if mallocs > units {
				t.Errorf("%.0f allocs for %.0f %ss = %.2f allocs/%s, budget 1",
					mallocs, units, row.per, mallocs/units, row.per)
			}
		})
	}
}

// TestCheckpointAllocsFlat holds a checkpoint to the cost of what
// changed since the last one: the bytes allocated by the last Checkpoint
// of an adaptive-counter run at a 10 s cadence may not grow with the
// run's history — 1000 requests within 1.25 times 250 requests — and
// stay a small fraction of the document written.
func TestCheckpointAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-request run skipped in -short mode")
	}
	lastCheckpoint := func(requests int) (alloc, doc uint64) {
		n, err := New(Config{Scheme: scheme.AdaptiveCounter{}, MapUnits: 5, Hosts: 100, Requests: requests, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		n.CheckpointEvery = 10 * sim.Second
		n.CheckpointHook = func(sim.Time) error {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := n.Checkpoint(io.Discard)
			runtime.ReadMemStats(&after)
			alloc, doc = after.TotalAlloc-before.TotalAlloc, uint64(len(n.ckBuf))
			return err
		}
		if _, err := n.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		return alloc, doc
	}
	short, _ := lastCheckpoint(250)
	long, doc := lastCheckpoint(1000)
	t.Logf("last checkpoint allocates %d B at 250 requests, %d B at 1000 requests for a %d B document", short, long, doc)
	if long > short*5/4 {
		t.Errorf("last checkpoint allocates %d B at 1000 requests, more than 1.25 × %d B at 250", long, short)
	}
	if long > doc/4 {
		t.Errorf("last checkpoint allocates %d B, more than a quarter of its %d B document", long, doc)
	}
}
