package neighbor

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// mapTable is the reference TestDenseMatchesMap holds Table to: the
// paper's HELLO, expiry and variation rules over a map keyed by host id,
// with none of Table's storage reuse.
type mapTable struct {
	owner   packet.NodeID
	sched   *sim.Scheduler
	entries map[packet.NodeID]*mapEntry
	changes []sim.Time
}

type mapEntry struct {
	twoHop []packet.NodeID
	expiry *sim.Event
}

func (m *mapTable) OnHello(h packet.NodeID, neighbors []packet.NodeID, interval sim.Duration) {
	if h == m.owner {
		return
	}
	e, known := m.entries[h]
	if known {
		m.sched.Cancel(e.expiry)
	} else {
		e = &mapEntry{}
		m.entries[h] = e
		m.changes = append(m.changes, m.sched.Now())
	}
	e.twoHop = append([]packet.NodeID(nil), neighbors...)
	e.expiry = m.sched.After(DefaultExpiryIntervals*interval, func() {
		delete(m.entries, h)
		m.changes = append(m.changes, m.sched.Now())
	})
}

func (m *mapTable) Count() int { return len(m.entries) }

func (m *mapTable) Contains(h packet.NodeID) bool {
	_, ok := m.entries[h]
	return ok
}

func (m *mapTable) Neighbors() []packet.NodeID {
	out := make([]packet.NodeID, 0, len(m.entries))
	for id := range m.entries {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func (m *mapTable) TwoHop(h packet.NodeID) []packet.NodeID {
	if e, ok := m.entries[h]; ok {
		return e.twoHop
	}
	return nil
}

func (m *mapTable) Variation() float64 {
	now := m.sched.Now()
	n := 0
	for _, ts := range m.changes {
		if ts.Add(VariationWindow) >= now {
			n++
		}
	}
	return float64(n) / (float64(max(len(m.entries), 1)) * VariationWindow.Seconds())
}

// TestDenseMatchesMap drives the table and the map-keyed reference
// through an identical random HELLO/expiry timeline and requires every
// observable to agree.
func TestDenseMatchesMap(t *testing.T) {
	const hosts = 40
	sched := sim.NewScheduler()
	m := &mapTable{sched: sched, entries: map[packet.NodeID]*mapEntry{}}
	d := NewDenseTable(0, sched, 0, hosts)
	rng := rand.New(rand.NewSource(9))
	var at sim.Time
	for i := 0; i < 400; i++ {
		at = at.Add(sim.Duration(rng.Intn(int(sim.Second))))
		h := packet.NodeID(rng.Intn(hosts))
		two := make([]packet.NodeID, rng.Intn(4))
		for j := range two {
			two[j] = packet.NodeID(rng.Intn(hosts))
		}
		iv := sim.Duration(1+rng.Intn(3)) * sim.Second
		sched.Schedule(at, func() {
			m.OnHello(h, two, iv)
			d.OnHello(h, two, iv)
		})
	}
	check := func() {
		if m.Count() != d.Count() {
			t.Fatalf("at %v: map count %d, dense count %d", sched.Now(), m.Count(), d.Count())
		}
		if mn, dn := m.Neighbors(), d.Neighbors(); !slices.Equal(mn, dn) {
			t.Fatalf("at %v: neighbor lists differ: %v vs %v", sched.Now(), mn, dn)
		}
		for h := packet.NodeID(0); h < hosts; h++ {
			if m.Contains(h) != d.Contains(h) {
				t.Fatalf("at %v: Contains(%d) differs", sched.Now(), h)
			}
			if mt, dt := m.TwoHop(h), d.TwoHop(h); !slices.Equal(mt, dt) {
				t.Fatalf("at %v: TwoHop(%d) differs: %v vs %v", sched.Now(), h, mt, dt)
			}
		}
		if m.Variation() != d.Variation() {
			t.Fatalf("at %v: variation differs: %v vs %v", sched.Now(), m.Variation(), d.Variation())
		}
	}
	// Check at instant boundaries only: the two tables' expiry timers for
	// the same neighbor share a timestamp, so mid-instant state may
	// legitimately differ between the two Step calls.
	end := at.Add(10 * sim.Second)
	for mark := sim.Time(0); mark <= end; mark = mark.Add(100 * sim.Millisecond) {
		sched.RunUntil(mark)
		check()
	}
	// Let every expiry run out.
	sched.Run()
	check()
	if d.Count() != 0 {
		t.Errorf("dense table still has %d neighbors after all expiries", d.Count())
	}
}

func TestDenseExpiry(t *testing.T) {
	sched := sim.NewScheduler()
	tab := NewDenseTable(1, sched, 0, 8)
	tab.OnHello(2, []packet.NodeID{3}, sim.Second)
	sched.RunUntil(sim.Time(1999 * sim.Millisecond))
	if !tab.Contains(2) {
		t.Fatal("neighbor expired before two hello intervals")
	}
	sched.RunUntil(sim.Time(2001 * sim.Millisecond))
	if tab.Contains(2) || tab.Count() != 0 {
		t.Fatal("neighbor not expired after two hello intervals")
	}
	if tab.TwoHop(2) != nil {
		t.Error("expired neighbor still reports a two-hop set")
	}
	if got := tab.Neighbors(); len(got) != 0 {
		t.Errorf("Neighbors = %v after expiry, want empty", got)
	}
}

func TestDenseNeighborsCacheInvalidation(t *testing.T) {
	sched := sim.NewScheduler()
	tab := NewDenseTable(0, sched, 0, 16)
	tab.OnHello(3, nil, sim.Second)
	tab.OnHello(1, nil, sim.Second)
	n1 := tab.Neighbors()
	if len(n1) != 2 || n1[0] != 1 || n1[1] != 3 {
		t.Fatalf("Neighbors = %v, want [1 3]", n1)
	}
	tab.OnHello(2, nil, sim.Second)
	n2 := tab.Neighbors()
	if len(n2) != 3 || n2[0] != 1 || n2[1] != 2 || n2[2] != 3 {
		t.Fatalf("Neighbors after join = %v, want [1 2 3]", n2)
	}
}

// TestAppendNeighborsBothLayouts: AppendNeighbors agrees with Neighbors
// (the two views of the one layout) and fills the caller's buffer in
// place.
func TestAppendNeighborsBothLayouts(t *testing.T) {
	sched := sim.NewScheduler()
	tab := NewDenseTable(0, sched, 0, 8)
	tab.OnHello(5, nil, sim.Second)
	tab.OnHello(2, nil, sim.Second)
	buf := make([]packet.NodeID, 0, 8)
	out := tab.AppendNeighbors(buf)
	if want := []packet.NodeID{2, 5}; !slices.Equal(out, want) || !slices.Equal(tab.Neighbors(), want) {
		t.Fatalf("AppendNeighbors = %v, Neighbors = %v, want %v", out, tab.Neighbors(), want)
	}
	if &out[0] != &buf[:1][0] {
		t.Errorf("AppendNeighbors reallocated despite capacity")
	}
}

func TestNeighborSetExposure(t *testing.T) {
	sched := sim.NewScheduler()
	d := NewDenseTable(0, sched, 0, 8)
	d.OnHello(4, nil, sim.Second)
	if s := d.NeighborSet(); s == nil || !s.Contains(4) || s.Count() != 1 {
		t.Error("NeighborSet does not reflect membership")
	}
}

// TestDenseLazyAllocation pins the O(1)-until-used contract of the dense
// layout: construction must not allocate the O(hosts) backing arrays, a
// never-touched table must answer every read-only query without
// materializing them, and the first HELLO must bring the table up
// transparently.
func TestDenseLazyAllocation(t *testing.T) {
	sched := sim.NewScheduler()
	tab := NewDenseTable(0, sched, 0, 1<<20)
	if tab.dense != nil || tab.present != nil {
		t.Fatal("dense storage materialized at construction")
	}
	if tab.Count() != 0 || tab.Contains(3) || tab.TwoHop(3) != nil {
		t.Fatal("idle dense table reports phantom neighbors")
	}
	if got := tab.Neighbors(); len(got) != 0 {
		t.Fatalf("idle Neighbors = %v, want empty", got)
	}
	if got := tab.AppendNeighbors(nil); len(got) != 0 {
		t.Fatalf("idle AppendNeighbors = %v, want empty", got)
	}
	tab.AuditEntries(func(packet.NodeID, sim.Time, sim.Duration) {
		t.Fatal("idle AuditEntries visited an entry")
	})
	tab.Clear() // must tolerate never-materialized storage
	if tab.dense != nil {
		t.Fatal("read-only queries materialized the dense storage")
	}
	tab.OnHello(9, []packet.NodeID{1, 2}, sim.Second)
	if tab.dense == nil || tab.present == nil {
		t.Fatal("first OnHello did not materialize the dense storage")
	}
	if !tab.Contains(9) || tab.Count() != 1 || len(tab.TwoHop(9)) != 2 {
		t.Fatal("table not usable after lazy materialization")
	}
	// NeighborSet must uphold the dense-table → non-nil contract even on
	// an untouched table (coverage judges capture it at construction).
	fresh := NewDenseTable(1, sched, 0, 8)
	if fresh.NeighborSet() == nil {
		t.Fatal("NeighborSet returned nil on a dense table")
	}
}

func TestDenseTableRejectsZeroHosts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDenseTable(hosts=0) did not panic")
		}
	}()
	NewDenseTable(0, sim.NewScheduler(), 0, 0)
}

// TestClearReusesStorage pins satellite 1: Clear must retain backing
// storage instead of reallocating, and the table must be fully usable
// afterwards.
func TestClearReusesStorage(t *testing.T) {
	sched := sim.NewScheduler()
	tab := NewDenseTable(0, sched, 0, 32)
	for h := packet.NodeID(1); h <= 20; h++ {
		tab.OnHello(h, nil, sim.Second)
	}
	pendingBefore := sched.Pending()
	tab.Clear()
	if tab.Count() != 0 {
		t.Fatalf("Count = %d after Clear", tab.Count())
	}
	if sched.Pending() != pendingBefore-20 {
		t.Errorf("Clear left expiry timers pending")
	}
	if tab.Variation() != 0 {
		t.Errorf("change log survived Clear")
	}
	// Steady-state Clear/refill cycles must not allocate (the slot
	// storage is warm after the first cycle). The scheduler is drained
	// each cycle so the cancelled expiry timers return to its event pool
	// — in a real run Step does that collection; here nothing ever steps.
	avg := testing.AllocsPerRun(20, func() {
		for h := packet.NodeID(1); h <= 20; h++ {
			tab.OnHello(h, nil, sim.Second)
		}
		tab.Clear()
		sched.Drain()
	})
	// Expiry events are pooled by the scheduler, entries live in the
	// slots, and the expiry closure is bound once per slot — so a warm
	// cycle allocates nothing.
	if avg > 0 {
		t.Errorf("Clear/refill cycle allocates %.1f objects, want 0", avg)
	}
	tab.OnHello(7, nil, sim.Second)
	if !tab.Contains(7) || tab.Count() != 1 {
		t.Errorf("table unusable after Clear")
	}
}
