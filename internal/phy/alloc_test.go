package phy

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/sim"
)

// nullListener discards all callbacks (fakeListener's recording slices
// would themselves allocate under AllocsPerRun).
type nullListener struct{}

func (nullListener) CarrierBusy()                 {}
func (nullListener) CarrierIdle()                 {}
func (nullListener) Deliver(*packet.Frame)        {}
func (nullListener) DeliverGarbled(*packet.Frame) {}

// TestTransmitZeroAllocSteadyState pins the transmit hot path: once the
// transmission-record pool, the scheduler's event pool and — in a world
// declared motionless — the neighbour memo are warm, a full
// transmit->deliver->finish cycle performs no heap allocation, whether
// the sender reaches two radios or a 200-radio cluster.
func TestTransmitZeroAllocSteadyState(t *testing.T) {
	rng := sim.NewRNG(5)
	cluster := make([]geom.Point, 200)
	for i := range cluster {
		cluster[i] = geom.Point{X: rng.UniformFloat(0, 900), Y: rng.UniformFloat(0, 900)}
	}
	for _, tc := range []struct {
		name string
		pts  []geom.Point
	}{
		{"three radios", []geom.Point{{X: 0}, {X: 300}, {X: 450}}},
		{"200-radio cluster", cluster},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			ch := NewChannel(sched, DSSSTiming(), 500)
			for _, p := range tc.pts {
				ch.Attach(static(p), nullListener{})
			}
			ch.SetMaxSpeed(0) // static radios: the spatial snapshot never goes stale

			f := bcastFrame(0)
			next := 0
			cycle := func() {
				ch.Transmit(next, f, nil)
				sched.Run()
				next = (next + 1) % len(tc.pts)
			}
			for i := 0; i < len(tc.pts)+8; i++ {
				cycle() // warm the tx pool, event pool, spatial index and every radio's memo entry
			}
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Errorf("steady-state transmit cycle allocates %.1f times, want 0", allocs)
			}

			hits, misses := ch.TxPoolStats()
			if hits == 0 || misses != 1 {
				t.Errorf("tx pool stats = %d hits / %d misses, want reuse of a single record", hits, misses)
			}
			if rate := ch.TxPoolHitRate(); rate < 0.9 {
				t.Errorf("tx pool hit rate = %.3f, want near 1", rate)
			}
			if _, misses := ch.NbrMemoStats(); misses != uint64(len(tc.pts)) {
				t.Errorf("neighbour memo computed %d lists, want one per radio (%d)", misses, len(tc.pts))
			}
		})
	}
}
