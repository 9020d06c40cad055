package neighbor

import (
	"math"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

func TestHelloAddsNeighbor(t *testing.T) {
	sched := sim.NewScheduler()
	tab := newTable(1, sched)
	tab.OnHello(2, []packet.NodeID{3, 4}, sim.Second)
	if tab.Count() != 1 || !tab.Contains(2) {
		t.Fatalf("count=%d contains=%v", tab.Count(), tab.Contains(2))
	}
	two := tab.TwoHop(2)
	if len(two) != 2 || two[0] != 3 || two[1] != 4 {
		t.Errorf("two-hop set = %v", two)
	}
}

func TestOwnHelloIgnored(t *testing.T) {
	sched := sim.NewScheduler()
	tab := newTable(1, sched)
	tab.OnHello(1, nil, sim.Second)
	if tab.Count() != 0 {
		t.Error("host enlisted itself as neighbor")
	}
}

func TestTwoHopKeepsAnnouncedSetVerbatim(t *testing.T) {
	// The table stores the announced set as-is (it may include the
	// owner; consumers like the NC scheme are insensitive to that, since
	// the owner is never in its own pending set).
	sched := sim.NewScheduler()
	tab := newTable(1, sched)
	tab.OnHello(2, []packet.NodeID{1, 3}, sim.Second)
	two := tab.TwoHop(2)
	if len(two) != 2 || two[0] != 1 || two[1] != 3 {
		t.Errorf("announced set not stored verbatim: %v", two)
	}
}

func TestExpiryAfterTwoIntervals(t *testing.T) {
	sched := sim.NewScheduler()
	tab := newTable(1, sched)
	tab.OnHello(2, nil, sim.Second)
	// At just under two intervals the neighbor must still be present.
	sched.RunUntil(sim.Time(1999 * sim.Millisecond))
	if !tab.Contains(2) {
		t.Fatal("neighbor expired before two hello intervals")
	}
	sched.RunUntil(sim.Time(2001 * sim.Millisecond))
	if tab.Contains(2) {
		t.Fatal("neighbor not expired after two hello intervals")
	}
}

func TestRefreshPreventsExpiry(t *testing.T) {
	sched := sim.NewScheduler()
	tab := newTable(1, sched)
	tab.OnHello(2, nil, sim.Second)
	// Refresh every second for five seconds.
	for i := 1; i <= 5; i++ {
		i := i
		sched.Schedule(sim.Time(i)*sim.Time(sim.Second), func() {
			tab.OnHello(2, nil, sim.Second)
			_ = i
		})
	}
	sched.RunUntil(sim.Time(6500 * sim.Millisecond))
	if !tab.Contains(2) {
		t.Error("refreshed neighbor expired")
	}
	sched.RunUntil(sim.Time(8000 * sim.Millisecond))
	if tab.Contains(2) {
		t.Error("neighbor survived two silent intervals after refreshes stopped")
	}
}

func TestExpiryUsesAnnouncedInterval(t *testing.T) {
	sched := sim.NewScheduler()
	tab := newTable(1, sched)
	tab.OnHello(2, nil, 5*sim.Second) // slow hello announcer
	sched.RunUntil(sim.Time(9 * sim.Second))
	if !tab.Contains(2) {
		t.Error("slow-hello neighbor expired before 2x its announced interval")
	}
	sched.RunUntil(sim.Time(11 * sim.Second))
	if tab.Contains(2) {
		t.Error("slow-hello neighbor did not expire")
	}
}

func TestNeighborsSorted(t *testing.T) {
	sched := sim.NewScheduler()
	tab := newTable(1, sched)
	for _, id := range []packet.NodeID{9, 2, 7, 4} {
		tab.OnHello(id, nil, sim.Second)
	}
	got := tab.Neighbors()
	want := []packet.NodeID{2, 4, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors() = %v, want sorted %v", got, want)
		}
	}
}

func TestTwoHopUnknownHost(t *testing.T) {
	sched := sim.NewScheduler()
	tab := newTable(1, sched)
	if tab.TwoHop(42) != nil {
		t.Error("two-hop set of unknown host should be nil")
	}
}

func TestTwoHopReplacedOnNewHello(t *testing.T) {
	sched := sim.NewScheduler()
	tab := newTable(1, sched)
	tab.OnHello(2, []packet.NodeID{3}, sim.Second)
	tab.OnHello(2, []packet.NodeID{4, 5}, sim.Second)
	two := tab.TwoHop(2)
	if len(two) != 2 || two[0] != 4 || two[1] != 5 {
		t.Errorf("stale two-hop data survived: %v", two)
	}
}

func TestVariationCountsJoinsAndLeaves(t *testing.T) {
	sched := sim.NewScheduler()
	tab := newTable(1, sched)
	// Two joins at t=0.
	tab.OnHello(2, nil, sim.Second)
	tab.OnHello(3, nil, sim.Second)
	// nv = 2 changes / (2 neighbors * 10s) = 0.1
	if nv := tab.Variation(); math.Abs(nv-0.1) > 1e-12 {
		t.Errorf("variation after two joins = %v, want 0.1", nv)
	}
	// Let host 3 expire at t=2s (one more change, one neighbor left):
	sched.Schedule(sim.Time(1500*sim.Millisecond), func() {
		tab.OnHello(2, nil, sim.Second) // keep 2 alive
	})
	sched.RunUntil(sim.Time(2500 * sim.Millisecond))
	if tab.Contains(3) {
		t.Fatal("host 3 should have expired")
	}
	// 3 changes / (1 neighbor * 10 s) = 0.3
	if nv := tab.Variation(); math.Abs(nv-0.3) > 1e-12 {
		t.Errorf("variation after a leave = %v, want 0.3", nv)
	}
}

func TestVariationWindowSlides(t *testing.T) {
	sched := sim.NewScheduler()
	tab := newTable(1, sched)
	tab.OnHello(2, nil, 100*sim.Second) // huge interval so no expiry interferes
	// After the window passes with no changes, variation returns to 0.
	sched.RunUntil(sim.Time(VariationWindow) + sim.Time(sim.Second))
	if nv := tab.Variation(); nv != 0 {
		t.Errorf("variation after quiet window = %v, want 0", nv)
	}
}

func TestVariationEmptyNeighborhoodDefined(t *testing.T) {
	sched := sim.NewScheduler()
	tab := newTable(1, sched)
	if nv := tab.Variation(); nv != 0 {
		t.Errorf("empty table variation = %v", nv)
	}
	tab.OnHello(2, nil, sim.Second)
	sched.RunUntil(sim.Time(3 * sim.Second)) // joins then expires: 2 changes, 0 neighbors
	if tab.Count() != 0 {
		t.Fatal("expected empty table")
	}
	nv := tab.Variation()
	if math.IsNaN(nv) || math.IsInf(nv, 0) {
		t.Errorf("variation undefined on empty neighborhood: %v", nv)
	}
}

func TestDHIIntervalFormula(t *testing.T) {
	cfg := DefaultDHIConfig()
	cases := []struct {
		nv   float64
		want sim.Duration
	}{
		{0, 10 * sim.Second},            // no variation: longest interval
		{0.02, 1 * sim.Second},          // at nvmax: clamped to himin
		{0.05, 1 * sim.Second},          // beyond nvmax: clamped
		{0.01, 5 * sim.Second},          // midpoint: half of himax
		{0.018, 1 * sim.Second},         // (0.002/0.02)*10s = 1s exactly at himin
		{0.015, 2500 * sim.Millisecond}, // quarter
	}
	for _, c := range cases {
		if got := cfg.Interval(c.nv); got != c.want {
			t.Errorf("Interval(%v) = %v, want %v", c.nv, got, c.want)
		}
	}
}

func TestDHIDegenerateConfig(t *testing.T) {
	cfg := DHIConfig{NVMax: 0, HIMin: sim.Second, HIMax: 10 * sim.Second}
	if got := cfg.Interval(0.5); got != 10*sim.Second {
		t.Errorf("degenerate NVMax: Interval = %v, want HIMax", got)
	}
}

func TestClear(t *testing.T) {
	sched := sim.NewScheduler()
	tab := newTable(1, sched)
	tab.OnHello(2, []packet.NodeID{3}, sim.Second)
	tab.Clear()
	if tab.Count() != 0 {
		t.Error("Clear left entries behind")
	}
	// Expiry events must have been cancelled: running past the deadline
	// must not panic or record changes.
	sched.RunUntil(sim.Time(10 * sim.Second))
	if nv := tab.Variation(); nv != 0 {
		t.Errorf("variation after clear = %v", nv)
	}
}

func TestZeroIntervalHelloDefaults(t *testing.T) {
	sched := sim.NewScheduler()
	tab := newTable(1, sched)
	tab.OnHello(2, nil, 0) // malformed announcement
	sched.RunUntil(sim.Time(1999 * sim.Millisecond))
	if !tab.Contains(2) {
		t.Error("neighbor with defaulted interval expired too early")
	}
}
