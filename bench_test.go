package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/manet"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/routing"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// Every figure in the paper's evaluation has a benchmark here that
// regenerates it. The benchmarks run the harness at a reduced scale
// (fewer broadcasts and replicas than the CLI defaults) so the whole
// suite finishes in minutes; `go run ./cmd/figures -fig <id>` regenerates
// any figure at full configurable scale. The tables are printed once per
// benchmark so `go test -bench` output doubles as a results artifact.

// benchOptions returns the reduced-scale harness options for benchmarks.
func benchOptions() experiment.Options {
	return experiment.Options{
		Requests: 25,
		Replicas: 1,
		Trials:   2000,
		Speeds:   []float64{20, 60},
		HelloIntervalsMS: []int{
			1000, 10000, 30000,
		},
	}
}

// runFigure executes one figure spec b.N times, printing its tables on
// the first iteration.
func runFigure(b *testing.B, id string) {
	b.Helper()
	spec, ok := experiment.Lookup(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		tables := spec.Run(o)
		if i == 0 {
			fmt.Printf("\n--- %s: %s ---\npaper: %s\n", spec.ID, spec.Title, spec.Paper)
			for _, t := range tables {
				fmt.Print(t.Text())
			}
		}
	}
}

func BenchmarkFig1EAC(b *testing.B)                 { runFigure(b, "fig1") }
func BenchmarkFig2Contention(b *testing.B)          { runFigure(b, "fig2") }
func BenchmarkFig5aSlope(b *testing.B)              { runFigure(b, "fig5a") }
func BenchmarkFig5bN1(b *testing.B)                 { runFigure(b, "fig5b") }
func BenchmarkFig5cN2(b *testing.B)                 { runFigure(b, "fig5c") }
func BenchmarkFig5dShape(b *testing.B)              { runFigure(b, "fig5d") }
func BenchmarkFig6CounterFuncs(b *testing.B)        { runFigure(b, "fig6") }
func BenchmarkFig7CounterComparison(b *testing.B)   { runFigure(b, "fig7") }
func BenchmarkFig8LocationFuncs(b *testing.B)       { runFigure(b, "fig8") }
func BenchmarkFig9ALTuning(b *testing.B)            { runFigure(b, "fig9") }
func BenchmarkFig10LocationComparison(b *testing.B) { runFigure(b, "fig10") }
func BenchmarkFig11HelloInterval(b *testing.B)      { runFigure(b, "fig11") }
func BenchmarkFig12DynamicHello(b *testing.B)       { runFigure(b, "fig12") }
func BenchmarkFig13Overall(b *testing.B)            { runFigure(b, "fig13") }

// Ablation benchmarks isolate design choices (see DESIGN.md section 7).

func runAblation(b *testing.B, id string) {
	b.Helper()
	spec, ok := experiment.LookupAny(id)
	if !ok {
		b.Fatalf("unknown ablation %s", id)
	}
	o := benchOptions()
	o.Maps = []int{1, 5, 9}
	for i := 0; i < b.N; i++ {
		tables := spec.Run(o)
		if i == 0 {
			fmt.Printf("\n--- %s: %s ---\n", spec.ID, spec.Title)
			for _, t := range tables {
				fmt.Print(t.Text())
			}
		}
	}
}

func BenchmarkAblAssessmentDelay(b *testing.B) { runAblation(b, "abl-assess") }
func BenchmarkAblCollisionModel(b *testing.B)  { runAblation(b, "abl-collision") }
func BenchmarkAblHelloTransport(b *testing.B)  { runAblation(b, "abl-hello") }
func BenchmarkAblNeighborExpiry(b *testing.B)  { runAblation(b, "abl-expiry") }
func BenchmarkAblCluster(b *testing.B)         { runAblation(b, "abl-cluster") }
func BenchmarkAblCapture(b *testing.B)         { runAblation(b, "abl-capture") }
func BenchmarkAblDistance(b *testing.B)        { runAblation(b, "abl-distance") }
func BenchmarkAblOracle(b *testing.B)          { runAblation(b, "abl-oracle") }
func BenchmarkAblMobilityModel(b *testing.B)   { runAblation(b, "abl-mobility") }
func BenchmarkAblOfferedLoad(b *testing.B)     { runAblation(b, "abl-load") }
func BenchmarkAblRTSCTS(b *testing.B)          { runAblation(b, "abl-rts") }
func BenchmarkAblGossip(b *testing.B)          { runAblation(b, "abl-prob") }

// --- Substrate micro-benchmarks ---

// schedulerModes enumerates the two queue implementations so every
// kernel benchmark runs as a ladder/heap pair; the ratio between the
// arms is the ladder queue's speedup.
var schedulerModes = []struct {
	name string
	mk   func() *sim.Scheduler
}{
	{"queue=ladder", sim.NewScheduler},
	{"queue=heap", sim.NewHeapScheduler},
}

// BenchmarkScheduler measures raw event throughput of the DES kernel
// under a standing population of 10k pending events: each operation
// fires one event whose callback immediately re-arms it at a uniform
// future offset, the simulation-kernel steady state.
func BenchmarkScheduler(b *testing.B) {
	const standing = 10_000
	for _, mode := range schedulerModes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			s := mode.mk()
			rng := sim.NewRNG(1)
			horizon := 1000 * sim.Millisecond
			var rearm func()
			rearm = func() { s.After(rng.UniformDuration(0, horizon), rearm) }
			for i := 0; i < standing; i++ {
				s.After(rng.UniformDuration(0, horizon), rearm)
			}
			for i := 0; i < 4*standing; i++ {
				s.Step() // reach pool/rung steady state before measuring
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// BenchmarkSchedulerCancel measures the cancellation path against a 10k
// standing load: each operation schedules one event and cancels it
// (tombstone for the ladder, eager heap removal for the legacy queue),
// with periodic clock advances so lazily cancelled events are collected
// rather than accumulated.
func BenchmarkSchedulerCancel(b *testing.B) {
	const standing = 10_000
	for _, mode := range schedulerModes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			s := mode.mk()
			rng := sim.NewRNG(1)
			horizon := 1000 * sim.Millisecond
			nop := func() {}
			var rearm func()
			rearm = func() { s.After(rng.UniformDuration(0, horizon), rearm) }
			for i := 0; i < standing; i++ {
				s.After(rng.UniformDuration(0, horizon), rearm)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := s.After(rng.UniformDuration(0, horizon), nop)
				s.Cancel(e)
				if i%1024 == 1023 {
					// Let the queue consume a slice of the timeline so
					// tombstones are recycled instead of piling up.
					s.RunUntil(s.Now().Add(10 * sim.Millisecond))
				}
			}
		})
	}
}

// BenchmarkSchedulerMixed interleaves the three kernel operations the
// simulation actually issues — schedule, cancel, fire — against a 10k
// standing load: each operation arms one surviving event, arms and
// cancels a victim (an inhibited rebroadcast), and steps the clock.
func BenchmarkSchedulerMixed(b *testing.B) {
	const standing = 10_000
	for _, mode := range schedulerModes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			s := mode.mk()
			rng := sim.NewRNG(1)
			horizon := 1000 * sim.Millisecond
			nop := func() {}
			for i := 0; i < standing; i++ {
				s.After(rng.UniformDuration(0, horizon), nop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.After(rng.UniformDuration(0, horizon), nop)
				victim := s.After(rng.UniformDuration(0, horizon), nop)
				s.Cancel(victim)
				s.Step()
			}
		})
	}
}

// BenchmarkBroadcastSim measures end-to-end simulation cost per run
// (100 hosts, 5x5 map, adaptive counter). The timer and the allocation
// accounting cover only Run, not network construction, so allocs/event
// is the steady-state per-event heap traffic
// manet.TestAllocationBudgets holds to at most 1.
func BenchmarkBroadcastSim(b *testing.B) {
	var events, mallocs uint64
	var ms0, ms1 runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n, err := manet.New(manet.Config{
			MapUnits: 5,
			Scheme:   scheme.AdaptiveCounter{},
			Requests: 20,
			Seed:     uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms0)
		b.StartTimer()
		s := n.Run()
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		events += s.Events
		mallocs += ms1.Mallocs - ms0.Mallocs
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(mallocs)/float64(events), "allocs/event")
}

// nopListener discards channel callbacks; the saturated-channel
// benchmark measures the medium itself, not a MAC.
type nopListener struct{}

func (nopListener) CarrierBusy()                 {}
func (nopListener) CarrierIdle()                 {}
func (nopListener) Deliver(*packet.Frame)        {}
func (nopListener) DeliverGarbled(*packet.Frame) {}

// BenchmarkSaturatedChannel measures the collision engine in the regime
// the paper studies: a broadcast storm holding tens of transmissions
// concurrently on the air. 1000 static hosts on an 11x11 map (the
// paper's 500 m unit and radius) each retransmit a 280-byte broadcast
// at a random cadence tuned to keep a mean of ~75 flights in the air,
// and each op advances the channel through 100 ms of that saturated
// steady state. The channel buckets active senders by grid cell and
// intersects receiver bitsets only inside the 2xradius interference
// neighborhood; allocs/event counts one event per frame resolved, end of
// airtime included (phy.TestTransmitZeroAllocSteadyState pins the
// transmit cycle itself at zero).
func BenchmarkSaturatedChannel(b *testing.B) {
	const (
		hosts   = 1000
		side    = 11 * 500.0 // 11x11 map of 500 m units
		radius  = 500.0
		meanGap = 32 * sim.Millisecond // ~75 concurrent flights
		slice   = 100 * sim.Millisecond
	)
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, phy.DSSSTiming(), radius)
	ch.SetMaxSpeed(0)
	rng := sim.NewRNG(7)
	air := ch.Timing().Airtime(280)
	for i := 0; i < hosts; i++ {
		i := i
		p := geom.Point{X: rng.UniformFloat(0, side), Y: rng.UniformFloat(0, side)}
		ch.Attach(phy.PositionFunc(func(sim.Time) geom.Point { return p }), nopListener{})
		f := packet.NewBroadcast(packet.BroadcastID{Source: packet.NodeID(i), Seq: 1},
			packet.NodeID(i), p)
		var rearm func()
		rearm = func() {
			ch.Transmit(i, f, nil)
			// The gap always exceeds the airtime, so the host (and
			// its frame) are free again before the next shot.
			sched.After(rng.UniformDuration(air+sim.Millisecond, 2*meanGap), rearm)
		}
		sched.After(rng.UniformDuration(0, 2*meanGap), rearm)
	}
	// Reach pool and offered-load steady state before measuring.
	sched.RunUntil(sim.Time(2 * sim.Second))
	var ms0, ms1 runtime.MemStats
	tx0 := ch.Stats().Transmissions
	runtime.ReadMemStats(&ms0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.RunUntil(sched.Now().Add(slice))
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	events := ch.Stats().Transmissions - tx0
	b.ReportMetric(float64(events)/float64(b.N), "tx/op")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(events), "allocs/event")
}

// BenchmarkSchemeDecision measures a single scheme decision (the per-
// reception hot path) for each scheme family.
func BenchmarkSchemeDecision(b *testing.B) {
	host := benchHost{neighbors: []packet.NodeID{1, 2, 3, 4, 5, 6, 7, 8}}
	cases := []struct {
		name string
		s    scheme.Scheme
	}{
		{"counter", scheme.Counter{C: 3}},
		{"adaptive-counter", scheme.AdaptiveCounter{}},
		{"location", scheme.Location{A: 0.0469}},
		{"adaptive-location", scheme.AdaptiveLocation{}},
		{"neighbor-coverage", scheme.NeighborCoverage{}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rx := scheme.Reception{From: 1, SenderPos: geom.Point{X: 300}}
			dup := scheme.Reception{From: 2, SenderPos: geom.Point{X: -200, Y: 150}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := c.s.NewJudge(host, rx)
				j.Initial()
				j.OnDuplicate(dup)
			}
		})
	}
}

// benchHost is a minimal HostView for decision benchmarks.
type benchHost struct {
	neighbors []packet.NodeID
}

var _ scheme.HostView = benchHost{}

func (h benchHost) ID() packet.NodeID          { return 0 }
func (h benchHost) Position() geom.Point       { return geom.Point{} }
func (h benchHost) Radius() float64            { return 500 }
func (h benchHost) NeighborCount() int         { return len(h.neighbors) }
func (h benchHost) Neighbors() []packet.NodeID { return h.neighbors }
func (h benchHost) TwoHop(n packet.NodeID) []packet.NodeID {
	if n == 1 {
		return []packet.NodeID{2, 3}
	}
	return nil
}

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
// regime the struct-of-arrays host state, the lazy dense neighbor
// tables, the two-level (macro over fine) grid, and the streaming
// record fold exist for. The map keeps the paper's density rule out of
// reach on purpose — mean degree is below the percolation threshold, so
// broadcasts touch small components while the machinery (movement,
// spatial index maintenance, interference buckets) carries the full
// population.
//
// It reports run-bytes/op — the heap allocated during Run — which must
// track the event count and the handful of active broadcasts, not the
// population or the total number of broadcasts ever issued
// (manet.TestRecordArenaStaysFlat pins that). The 100k-host world is the
// bench workload mega-sharded; the million-host arm exists only here.
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
			var runBytes uint64
			var ms0, ms1 runtime.MemStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
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
