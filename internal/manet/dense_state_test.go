package manet

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// Records() without retention must fail loudly, not return a partial
// set: the default dense bookkeeping has already folded and released
// completed records.
func TestRecordsPanicsAfterFold(t *testing.T) {
	n, err := New(Config{Scheme: scheme.Flooding{}, MapUnits: 3, Hosts: 30, Requests: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("Records() after mid-run folding did not panic")
		}
	}()
	n.Records()
}

// The memory fix the arena exists for: live per-broadcast state must
// track the number of broadcasts in flight, not the number ever issued.
// At 10x the default request count the arena's high-water mark must stay
// a small constant — requests arrive ~1 s apart and a broadcast wave
// completes in tens of milliseconds, so anything growing with Requests
// is a leak (exactly what the retained map used to do).
func TestRecordArenaStaysFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	const requests = 1000 // 10x the default of 100
	n, err := New(Config{Scheme: scheme.Flooding{}, MapUnits: 3, Hosts: 40, Requests: requests, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Probes ride the scheduler alongside the workload; they read
	// bookkeeping lengths only, so the run itself is unperturbed.
	maxLive := 0
	var probe func()
	probe = func() {
		if live := len(n.recs); live > maxLive {
			maxLive = live
		}
		if n.sched.Now() < sim.Time(0).Add(sim.Duration(requests)*2*sim.Second) {
			n.sched.After(500*sim.Millisecond, probe)
		}
	}
	n.sched.Schedule(sim.Time(0), probe)
	s := n.Run()
	if s.Broadcasts != requests {
		t.Fatalf("Broadcasts = %d, want %d", s.Broadcasts, requests)
	}
	if maxLive > 16 {
		t.Errorf("record arena high-water mark %d: live state is growing with the run", maxLive)
	}
	if got := int(n.recBase) + len(n.recs); got != requests {
		t.Errorf("arena accounting: folded %d + live %d != issued %d", n.recBase, len(n.recs), requests)
	}
	if len(n.recs) > 16 {
		t.Errorf("%d records never folded", len(n.recs))
	}
}

// The NACK set must hold exactly the ids a host requested and still has
// not received — under sustained loss it must not accumulate an entry
// per broadcast ever missed and later repaired.
func TestNackedStaysBounded(t *testing.T) {
	n, err := New(Config{
		Hosts: 60, MapUnits: 5, Scheme: scheme.Counter{C: 2},
		Requests: 20, LossRate: 0.15, Repair: true,
		HelloMode: HelloFixed, Drain: 8 * sim.Second, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := n.Run()
	if s.RepairsDelivered == 0 {
		t.Fatal("workload produced no repairs; the test exercises nothing")
	}
	total := 0
	for i, h := range n.hosts {
		total += len(h.hello.nacked)
		for bid := range h.hello.nacked {
			if n.dedup.seen(h.id, bid.Seq) {
				t.Errorf("host %d retains a NACK marker for %v it already received", i, bid)
			}
		}
	}
	if outstanding := s.RepairsRequested - s.RepairsDelivered; total > outstanding {
		t.Errorf("NACK markers %d exceed outstanding repairs %d", total, outstanding)
	}
}

// The auditor's mover sweep must stay silent for every mobility model
// when the configured bound is honest...
func TestMoverSpeedAuditClean(t *testing.T) {
	for _, mk := range []func() Config{
		func() Config { return Config{Scheme: scheme.Flooding{}, Hosts: 25, MapUnits: 3, Requests: 5} },
		func() Config {
			return Config{Scheme: scheme.Flooding{}, Hosts: 25, MapUnits: 3, Requests: 5, Mobility: MobilityWaypoint}
		},
		func() Config {
			return Config{Scheme: scheme.Flooding{}, Hosts: 25, MapUnits: 3, Requests: 5, Static: true}
		},
	} {
		cfg := mk()
		a := obs.NewAuditor()
		cfg.Audit = a
		cfg.Seed = 11
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Run()
		if !a.Ok() {
			t.Errorf("%v/static=%v: auditor reported %d violations; first: %v",
				cfg.Mobility, cfg.Static, a.Total(), a.Violations()[0])
		}
	}
}

// ...and flag every host once the bound is understated (white-box: the
// sweep compares against auditSpeed, so shrinking it after construction
// simulates a mobility model that outruns its declared cap).
func TestMoverSpeedAuditFlagsExcess(t *testing.T) {
	a := obs.NewAuditor()
	n, err := New(Config{
		Scheme: scheme.Flooding{}, Hosts: 25, MapUnits: 3, Requests: 5,
		Audit: a, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.auditSpeed = 1e-6 // far below the paper's 30 km/h roaming cap
	n.Run()
	found := false
	for _, v := range a.Violations() {
		if v.Invariant == obs.InvMobility {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no %s violation despite movers exceeding the bound (total violations: %d)",
			obs.InvMobility, a.Total())
	}
}
