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
		// fig13's densest map: with HELLO on, every host hears every
		// other, so a table refresh is most of the work. Each table keeps
		// one expiry event and shares its senders' announced sets, so a
		// refresh allocates nothing.
		{"Run at AC 1x1, 100 hosts", "event", func(t *testing.T) (float64, float64) {
			cfg := Config{Scheme: scheme.AdaptiveCounter{}, MapUnits: 1, Hosts: 100, Requests: 20, Seed: 1}
			mustNew(t, cfg).Run()
			cfg.Seed = 2
			n := mustNew(t, cfg)
			var events uint64
			mallocs := mallocsAround(func() { events = n.Run().Events })
			return mallocs, float64(events)
		}},
		// The HELLO path: sparse-hello's world scaled down — mobile hosts
		// at ≈ 0.83 per unit², NC with dynamic HELLO — where beacons are
		// most of the events and neighbors join and expire all run long,
		// so each table must recycle its expired neighbors' records.
		{"Run at NC-DHI 19x19, 300 mobile hosts", "event", func(t *testing.T) (float64, float64) {
			cfg := Config{
				Scheme: scheme.NeighborCoverage{Label: "NC-DHI"}, HelloMode: HelloDynamic,
				Hosts: 300, MapUnits: 19, MaxSpeedKMH: 80, Requests: 100, Seed: 1,
			}
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

// TestRunLiveHeapFlatInRunLength holds what a finished run keeps alive to
// the world's size, not to how long it ran: in the HELLO-path world of
// TestAllocationBudgets, the live heap after Run at 400 requests may be
// at most 1.25 times that at 100. Event-queue storage that grew with the
// events executed once made it 1.85 times.
func TestRunLiveHeapFlatInRunLength(t *testing.T) {
	if testing.Short() {
		t.Skip("400-request run skipped in -short mode")
	}
	liveAfterRun := func(requests int) uint64 {
		n, err := New(Config{
			Scheme: scheme.NeighborCoverage{Label: "NC-DHI"}, HelloMode: HelloDynamic,
			Hosts: 300, MapUnits: 19, MaxSpeedKMH: 80, Requests: requests, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Run()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(n)
		return ms.HeapAlloc
	}
	short, long := liveAfterRun(100), liveAfterRun(400)
	t.Logf("live heap after Run: %d KB at 100 requests, %d KB at 400 (%.2fx)", short>>10, long>>10, float64(long)/float64(short))
	if long*4 > short*5 {
		t.Errorf("live heap after Run grew from %d KB at 100 requests to %d KB at 400, budget 1.25x", short>>10, long>>10)
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
