package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/manet"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/scheme"
)

// The repository's benchmark is bench/ (contract in BENCHMARK.json); the
// benchmarks here are only those with no bench twin. Figure tables are
// regenerated by `go run ./cmd/figures -fig all` (and `-fig ablations`);
// experiment.TestEverySimFigureRunsTiny/TestEveryAblationRunsTiny run
// every spec's sweep at a tiny scale under tier-1 and hold each table's
// text to internal/experiment/testdata/tables.golden.

// BenchmarkRouteDiscovery measures the motivating application end to
// end: AODV-lite route discovery carried by each suppression scheme.
func BenchmarkRouteDiscovery(b *testing.B) {
	for _, sch := range []scheme.Scheme{
		scheme.Flooding{}, scheme.AdaptiveCounter{}, scheme.NeighborCoverage{},
	} {
		sch := sch
		b.Run(sch.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := routing.New(routing.Config{
					Hosts:       100,
					MapUnits:    5,
					Scheme:      sch,
					Discoveries: 20,
					Seed:        uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				r := n.Run()
				if i == 0 {
					b.Logf("success=%.2f hops=%.2f rreq/d=%.1f",
						r.SuccessRate(), r.MeanRouteHops, r.RequestsPerDiscovery())
				}
			}
		})
	}
}

// BenchmarkScaling measures how simulation cost grows with population at
// the paper's density (4 hosts per unit cell): every unit-disk query goes
// through the spatial index, whose query cost tracks local density
// rather than the total count.
func BenchmarkScaling(b *testing.B) {
	cases := []struct{ hosts, mapUnits int }{
		{100, 5}, {400, 10}, {1000, 16},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(fmt.Sprintf("hosts=%d", tc.hosts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := manet.New(manet.Config{
					Hosts:    tc.hosts,
					MapUnits: tc.mapUnits,
					Scheme:   scheme.AdaptiveCounter{},
					Requests: 10,
					Seed:     uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				n.Run()
			}
		})
	}
}

// BenchmarkMegaScale runs million-host-class worlds: populations far
// beyond the paper's 100 hosts on maps hundreds of units across, the
// regime the per-kind host slabs, the per-world shared MAC and mover
// blocks, and the streaming record fold exist for. The map keeps the
// paper's density rule out of reach on purpose — mean degree is below
// the percolation threshold, so broadcasts touch small components while
// the machinery (movement, spatial index maintenance) carries the full
// population, and the handful of flights on the air is what the
// channel's reach-filtered overlap scan walks.
//
// It reports run-bytes/op — the heap allocated during Run — which must
// track the event count and the handful of active broadcasts, not the
// population or the total number of broadcasts ever issued
// (manet.TestRecordArenaStaysFlat pins that), and construct-B/host —
// the heap a cold New allocates, per host (manet.TestHostFootprint pins
// its budget). The 100k-host world is the bench workload mega-sharded;
// the million-host arm exists only here.
func BenchmarkMegaScale(b *testing.B) {
	cases := []struct{ hosts, mapUnits, requests int }{
		{100_000, 300, 20},
		{1_000_000, 900, 10},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(fmt.Sprintf("hosts=%d", tc.hosts), func(b *testing.B) {
			if testing.Short() && tc.hosts > 100_000 {
				b.Skip("million-host arm skipped in short mode")
			}
			var events uint64
			var runBytes, constructBytes uint64
			var ms0, ms1 runtime.MemStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&ms0)
				n, err := manet.New(manet.Config{
					Hosts:    tc.hosts,
					MapUnits: tc.mapUnits,
					Scheme:   scheme.Flooding{},
					Requests: tc.requests,
					// The paper's 10 km/h-per-unit rule extrapolates to
					// thousands of km/h on mega maps; pin vehicular speed.
					MaxSpeedKMH: 50,
					Seed:        uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms1)
				constructBytes += ms1.TotalAlloc - ms0.TotalAlloc
				runtime.GC()
				runtime.ReadMemStats(&ms0)
				b.StartTimer()
				s := n.Run()
				b.StopTimer()
				runtime.ReadMemStats(&ms1)
				if s.Broadcasts != tc.requests {
					b.Fatalf("ran %d broadcasts, want %d", s.Broadcasts, tc.requests)
				}
				events += s.Events
				runBytes += ms1.TotalAlloc - ms0.TotalAlloc
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(runBytes)/float64(b.N), "run-bytes/op")
			b.ReportMetric(float64(constructBytes)/float64(b.N)/float64(tc.hosts), "construct-B/host")
		})
	}
}

// BenchmarkTelemetry measures the cost of the run-telemetry subsystem:
// the off arm leaves Config.Telemetry nil (the instrument points reduce
// to untaken branches, so it must match pre-instrumentation
// BenchmarkScaling timings), the on arm samples every series on the
// default tick plus the channel busy-time integral on every carrier
// transition.
func BenchmarkTelemetry(b *testing.B) {
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"off", false}, {"on", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := manet.Config{
					MapUnits: 5,
					Scheme:   scheme.AdaptiveCounter{},
					Requests: 10,
					Seed:     uint64(i + 1),
				}
				if mode.enabled {
					cfg.Telemetry = obs.New(0)
				}
				n, err := manet.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				n.Run()
			}
		})
	}
}
