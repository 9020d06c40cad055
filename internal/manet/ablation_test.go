package manet

import (
	"testing"

	"repro/internal/scheme"
	"repro/internal/sim"
)

// TestDisableCollisionsRestoresFlooding: without collisions, flooding on
// a connected mobile map must reach essentially everyone, and the
// channel must report zero collisions.
func TestDisableCollisionsRestoresFlooding(t *testing.T) {
	cfg := Config{
		Hosts:             40,
		MapUnits:          3,
		Scheme:            scheme.Flooding{},
		Requests:          15,
		Seed:              21,
		DisableCollisions: true,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := n.Run()
	if s.Collisions != 0 {
		t.Errorf("collisions = %d with the model disabled", s.Collisions)
	}
	if s.MeanRE < 0.999 {
		t.Errorf("flooding without collisions RE = %v, want ~1", s.MeanRE)
	}
}

// TestCollisionsHurtDenseFlooding: with the model enabled, the same
// workload must record a substantial number of collisions.
func TestCollisionsHurtDenseFlooding(t *testing.T) {
	cfg := Config{
		Hosts:    40,
		MapUnits: 1,
		Scheme:   scheme.Flooding{},
		Requests: 15,
		Seed:     21,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := n.Run()
	if s.Collisions == 0 {
		t.Error("dense flooding recorded no collisions; the storm is missing")
	}
}

// TestIdealHelloTablesExact: with idealized beacons in a static cluster,
// every table matches ground truth after one interval, and no HELLO
// frames hit the channel.
func TestIdealHelloTablesExact(t *testing.T) {
	cfg := Config{
		Hosts:         10,
		MapUnits:      1,
		Static:        true,
		Placement:     cluster(10),
		Scheme:        scheme.NeighborCoverage{},
		HelloMode:     HelloFixed,
		HelloInterval: 1 * sim.Second,
		IdealHello:    true,
		Requests:      1,
		Warmup:        5 * sim.Second,
		Seed:          33,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := n.Run()
	if s.HelloSent == 0 {
		t.Fatal("ideal hello counted no beacons")
	}
	// No hello frames on the air: all transmissions are broadcast data.
	if s.Transmissions > s.Broadcasts*cfg.Hosts {
		t.Errorf("ideal hello still transmitted frames: %d", s.Transmissions)
	}
	for i := 0; i < cfg.Hosts; i++ {
		if got, want := n.HostTableCount(i), n.TrueNeighborCount(i); got != want {
			t.Errorf("host %d: table %d, truth %d", i, got, want)
		}
	}
}

// TestIdealHelloHelpsNCWhenStale: at high speed with a long beacon
// interval, idealized hello should not do worse than MAC hello (it
// removes staleness-inducing collisions and beacon airtime).
func TestIdealHelloHelpsNCWhenStale(t *testing.T) {
	base := Config{
		Hosts:         60,
		MapUnits:      9,
		MaxSpeedKMH:   70,
		Scheme:        scheme.NeighborCoverage{},
		HelloMode:     HelloFixed,
		HelloInterval: 10 * sim.Second,
		Requests:      25,
		Seed:          27,
	}
	mac := base
	nm, err := New(mac)
	if err != nil {
		t.Fatal(err)
	}
	sm := nm.Run()

	ideal := base
	ideal.IdealHello = true
	ni, err := New(ideal)
	if err != nil {
		t.Fatal(err)
	}
	si := ni.Run()

	if si.MeanRE < sm.MeanRE-0.05 {
		t.Errorf("ideal hello RE %v notably worse than MAC hello %v", si.MeanRE, sm.MeanRE)
	}
}

// TestProbabilisticEndToEnd: gossip probability shapes transmissions as
// expected — higher P, more transmissions.
func TestProbabilisticEndToEnd(t *testing.T) {
	run := func(p float64) int {
		cfg := Config{
			Hosts:    30,
			MapUnits: 1,
			Scheme:   scheme.Probabilistic{P: p},
			Requests: 20,
			Seed:     17,
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n.Run().Transmissions
	}
	lo, hi := run(0.2), run(0.9)
	if lo >= hi {
		t.Errorf("P=0.2 transmitted %d >= P=0.9's %d", lo, hi)
	}
}

// TestClusterSchemeEndToEnd: in a dense cluster with stable HELLO
// tables, the cluster scheme should deliver everywhere while saving most
// rebroadcasts (only the head and gateways relay).
func TestClusterSchemeEndToEnd(t *testing.T) {
	cfg := Config{
		Hosts:     20,
		MapUnits:  1,
		Static:    true,
		Placement: cluster(20),
		Scheme:    scheme.Cluster{},
		Requests:  10,
		Seed:      13,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := n.Run()
	if s.MeanRE < 0.95 {
		t.Errorf("cluster scheme RE = %v in a single cell", s.MeanRE)
	}
	// One mutual-range cell: a single head relays; everyone else is a
	// member. SRB should be very high.
	if s.MeanSRB < 0.8 {
		t.Errorf("cluster scheme SRB = %v, want most hosts silent", s.MeanSRB)
	}
}

// TestWaypointMobilityEndToEnd: the simulation runs identically shaped
// under the random-waypoint model.
func TestWaypointMobilityEndToEnd(t *testing.T) {
	cfg := Config{
		Hosts:    25,
		MapUnits: 3,
		Scheme:   scheme.AdaptiveCounter{},
		Mobility: MobilityWaypoint,
		Requests: 10,

		RetainRecords: true,
		Seed:          19,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := n.Run()
	if s.MeanRE < 0.8 {
		t.Errorf("waypoint mobility RE = %v, suspiciously low", s.MeanRE)
	}
	for _, rec := range n.Records() {
		if rec.Transmitted > rec.Received {
			t.Errorf("invariant t<=r violated under waypoint mobility")
		}
	}
}

func TestMobilityModelString(t *testing.T) {
	if MobilityRandomTurn.String() != "random-turn" ||
		MobilityWaypoint.String() != "random-waypoint" ||
		MobilityModel(7).String() == "" {
		t.Error("mobility model names wrong")
	}
}

// TestLossRateReducesReachability: fading loss must hurt a fixed
// workload monotonically (0% vs 30%).
func TestLossRateReducesReachability(t *testing.T) {
	run := func(loss float64) float64 {
		cfg := Config{
			Hosts:    50,
			MapUnits: 5,
			Scheme:   scheme.Counter{C: 2},
			Requests: 20,
			LossRate: loss,
			Seed:     31,
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n.Run().MeanRE
	}
	clean, lossy := run(0), run(0.3)
	if lossy >= clean {
		t.Errorf("RE with 30%% loss (%v) not below clean RE (%v)", lossy, clean)
	}
}

// TestHelloFreeSchemesSendNoHellos: fixed-threshold schemes must not pay
// any beacon cost by default.
func TestHelloFreeSchemesSendNoHellos(t *testing.T) {
	for _, sch := range []scheme.Scheme{
		scheme.Flooding{}, scheme.Counter{C: 3}, scheme.Location{A: 0.05},
	} {
		n, err := New(Config{Hosts: 20, MapUnits: 3, Scheme: sch, Requests: 5, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if s := n.Run(); s.HelloSent != 0 {
			t.Errorf("%s sent %d hellos without needing them", sch.Name(), s.HelloSent)
		}
	}
}

// TestEveryBroadcastResolves: after the run drains, no host may hold an
// unresolved pending rebroadcast (they all transmitted or inhibited).
func TestEveryBroadcastResolves(t *testing.T) {
	cfg := Config{
		Hosts:    40,
		MapUnits: 5,
		Scheme:   scheme.AdaptiveCounter{},
		Requests: 15,
		Drain:    5 * sim.Second,
		Seed:     43,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	for i, h := range n.hosts {
		if h.pendingCount() != 0 {
			t.Errorf("host %d still holds %d pending rebroadcasts after drain",
				i, h.pendingCount())
		}
	}
}
