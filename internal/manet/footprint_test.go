package manet

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// TestHostFootprint pins what one host costs. Its per-host records hold
// only what differs between hosts (the world's constants sit in one
// shared block per layer, the callback adapters are views of their
// owner, open decisions' records come from one network pool, small
// integers take 32 bits), a MAC allocates its unicast record only on
// first unicast use, a HELLO-off world builds no per-host HELLO state
// (neighbor table, beacons, repair), and a warm arena world takes every
// population-sized array over from the world before.
// The byte figures are heap bytes allocated by New (and, warm, by the
// first snapshot rebuild), divided by the population, on 64-bit
// platforms.
func TestHostFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("record sizes are pinned for 64-bit platforms")
	}
	for _, rec := range []struct {
		name        string
		size, limit uintptr
	}{
		{"mac.MAC", unsafe.Sizeof(mac.MAC{}), 176},
		{"mobility.Roamer", unsafe.Sizeof(mobility.Roamer{}), 144},
		{"host", unsafe.Sizeof(host{}), 96},
	} {
		if rec.size > rec.limit {
			t.Errorf("Sizeof(%s) = %d B, budget %d B", rec.name, rec.size, rec.limit)
		}
	}

	const hosts = 20_000
	world := func(hello HelloMode, seed uint64) Config {
		cfg := Config{
			Hosts: hosts, MapUnits: 134, MaxSpeedKMH: 50, Scheme: scheme.Flooding{},
			HelloMode: hello, Requests: 20, Seed: seed,
		}
		if hello != HelloOff {
			cfg.Scheme = scheme.AdaptiveCounter{}
		}
		return cfg
	}
	bytesPerHost := func(t *testing.T, cfg Config, firstRebuild bool) float64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if firstRebuild {
			n.ch.CountReachable(0)
		}
		runtime.ReadMemStats(&after)
		n.Close()
		return float64(after.TotalAlloc-before.TotalAlloc) / hosts
	}
	for _, row := range []struct {
		name   string
		budget float64 // heap bytes per host
		cfg    Config
	}{
		{"cold HELLO-off", 650, world(HelloOff, 1)},
		{"cold HELLO", 780, world(HelloFixed, 1)},
	} {
		got := bytesPerHost(t, row.cfg, false)
		t.Logf("%s: New allocated %.1f B per host", row.name, got)
		if got > row.budget {
			t.Errorf("%s: New allocated %.1f B per host, budget %.0f", row.name, got, row.budget)
		}
	}
	// The first world fills the arena and the first HELLO world adds the
	// neighbor tables; every later one, in either mode, is warm.
	arena := NewArena()
	for i, hello := range []HelloMode{HelloOff, HelloFixed, HelloFixed, HelloOff} {
		cfg := world(hello, uint64(i+1))
		cfg.Arena = arena
		got := bytesPerHost(t, cfg, true)
		if i >= 2 && got >= 1 {
			t.Errorf("warm arena world %d (HELLO %v): New and the first snapshot allocated %.2f B per host, want < 1", i, hello, got)
		}
	}
}

// checkpointedRun runs cfg to completion with a checkpoint every 5
// simulated seconds and returns every document and the summary.
func checkpointedRun(t *testing.T, cfg Config) ([][]byte, metrics.Summary) {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var docs [][]byte
	n.CheckpointEvery = 5 * sim.Second
	n.CheckpointHook = func(sim.Time) error {
		var buf bytes.Buffer
		err := n.Checkpoint(&buf)
		docs = append(docs, buf.Bytes())
		return err
	}
	sum, err := n.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return docs, sum
}

// TestArenaAcrossHelloModes builds HELLO-off, HELLO and HELLO-off worlds
// of one population through one arena, on both engines that park slabs.
// HELLO-off worlds build no neighbor tables, so the arena has to keep
// the table slab of the HELLO world across them and hand a HELLO world
// its tables back fully reinitialized: every summary and every
// checkpoint document must equal those of a fresh build.
func TestArenaAcrossHelloModes(t *testing.T) {
	for _, engine := range []Engine{EngineSequentialOracle, EngineSharded} {
		arena := NewArena()
		for i, tc := range []struct {
			s     scheme.Scheme
			hello HelloMode
		}{
			{scheme.Counter{C: 3}, HelloOff},
			{scheme.NeighborCoverage{}, HelloDynamic},
			{scheme.Flooding{}, HelloOff},
			{scheme.AdaptiveCounter{}, HelloFixed},
		} {
			cfg := resumeBase(tc.s, uint64(7+i))
			cfg.HelloMode, cfg.Engine = tc.hello, engine
			if engine == EngineSharded {
				cfg.Shards = 2
			}
			wantDocs, want := checkpointedRun(t, cfg)
			cfg.Arena = arena
			gotDocs, got := checkpointedRun(t, cfg)
			if got != want {
				t.Fatalf("%v world %d (HELLO %v): arena summary diverges:\narena: %+v\nfresh: %+v", engine, i, tc.hello, got, want)
			}
			if len(gotDocs) != len(wantDocs) || len(wantDocs) == 0 {
				t.Fatalf("%v world %d: %d checkpoints through the arena, %d fresh", engine, i, len(gotDocs), len(wantDocs))
			}
			for k := range wantDocs {
				if !bytes.Equal(gotDocs[k], wantDocs[k]) {
					t.Fatalf("%v world %d (HELLO %v): checkpoint %d differs through the arena", engine, i, tc.hello, k)
				}
			}
		}
	}
}
