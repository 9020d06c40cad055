package neighbor

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/packet"
	"repro/internal/sim"
)

// mapTable is the reference Table is held to: the paper's HELLO, expiry
// and variation rules over a map keyed by host id, with none of Table's
// storage reuse or sharing and one expiry timer per neighbor, cancelled
// and re-scheduled at every refresh. Each refresh's Schedule draws the
// sequence number Table's NextSeq does, so on a scheduler of its own its
// expiry timers carry the keys Table's entries do.
type mapTable struct {
	owner   packet.NodeID
	sched   *sim.Scheduler
	entries map[packet.NodeID]*mapEntry
	changes []sim.Time
}

type mapEntry struct {
	lastHeard sim.Time
	interval  sim.Duration
	twoHop    []packet.NodeID
	expiry    *sim.Event
}

func newMapTable(owner packet.NodeID, sched *sim.Scheduler) *mapTable {
	return &mapTable{owner: owner, sched: sched, entries: map[packet.NodeID]*mapEntry{}}
}

func (m *mapTable) OnHello(h packet.NodeID, neighbors []packet.NodeID, interval sim.Duration) {
	if h == m.owner {
		return
	}
	if interval <= 0 {
		interval = sim.Second
	}
	e, known := m.entries[h]
	if known {
		m.sched.Cancel(e.expiry)
	} else {
		e = &mapEntry{}
		m.entries[h] = e
		m.change()
	}
	e.lastHeard, e.interval = m.sched.Now(), interval
	e.twoHop = append([]packet.NodeID(nil), neighbors...)
	e.expiry = m.sched.After(DefaultExpiryIntervals*interval, func() {
		delete(m.entries, h)
		m.change()
	})
}

// change logs a join or leave and forgets those older than the window.
func (m *mapTable) change() {
	now := m.sched.Now()
	m.changes = slices.DeleteFunc(append(m.changes, now), func(ts sim.Time) bool {
		return ts.Add(VariationWindow) < now
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

func (m *mapTable) Snapshot() TableState {
	st := TableState{Changes: m.changes}
	for _, h := range m.Neighbors() {
		e := m.entries[h]
		st.Entries = append(st.Entries, EntryState{
			ID: h, LastHeard: e.lastHeard, Interval: e.interval,
			Deadline: e.expiry.At(), ExpirySeq: e.expiry.Seq(), TwoHop: e.twoHop,
		})
	}
	return st
}

// TestDenseMatchesMap drives the table and the map-keyed reference
// through an identical random HELLO/expiry timeline and requires every
// observable to agree.
func TestDenseMatchesMap(t *testing.T) {
	const hosts = 40
	sched := sim.NewScheduler()
	m := newMapTable(0, sched)
	d := NewTable(0, sched, 0, hosts)
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
			t.Fatalf("at %v: map count %d, table count %d", sched.Now(), m.Count(), d.Count())
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
		t.Errorf("table still has %d neighbors after all expiries", d.Count())
	}
}

// fuzzHosts spans 33 bitset words, so fuzzed ids fall in many words of
// the membership bitset, not just the first.
const fuzzHosts = 33 * 64

// fuzzID maps a byte to one of 256 distinct ids spread over the
// population (67 is coprime to fuzzHosts); byte 0 is the owner, 0.
func fuzzID(b byte) packet.NodeID { return packet.NodeID(int(b) * 67 % fuzzHosts) }

// FuzzTableOps is a differential fuzz of Table against mapTable. The
// input is a little op language:
//
//	0, 1  HELLO  sender, n%5, n two-hop ids, interval (b%8 × 500 ms; 0 defaults)
//	2     ADVANCE b × 50 ms, firing every expiry due
//	3     RESTORE the table's Snapshot into a fresh table and scheduler
//
// so it covers refreshes with growing and shrinking intervals, expiry,
// a rejoin that reuses an expired neighbor's record, and checkpoints.
// After every op Neighbors, Count, TwoHop, AuditEntries, Variation and
// Snapshot (expiry sequence numbers included) must equal the reference's.
func FuzzTableOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		ts, ms := sim.NewScheduler(), sim.NewScheduler()
		tab, ref := NewTable(0, ts, 0, fuzzHosts), newMapTable(0, ms)
		pos := 0
		next := func() byte {
			if pos >= len(ops) {
				return 0
			}
			pos++
			return ops[pos-1]
		}
		for step := 0; pos < len(ops); step++ {
			switch op := next() % 4; op {
			case 0, 1:
				h := fuzzID(next())
				two := make([]packet.NodeID, next()%5)
				for i := range two {
					two[i] = fuzzID(next())
				}
				iv := sim.Duration(next()%8) * 500 * sim.Millisecond
				tab.OnHello(h, two, iv)
				ref.OnHello(h, two, iv)
			case 2:
				until := ts.Now().Add(sim.Duration(next()) * 50 * sim.Millisecond)
				ts.RunUntil(until)
				ms.RunUntil(until)
			case 3:
				st := tab.Snapshot()
				ts2 := sim.NewScheduler()
				if err := ts2.RestoreState(ts.SnapshotState()); err != nil {
					t.Fatal(err)
				}
				fresh := NewTable(0, ts2, 0, fuzzHosts)
				if err := fresh.Restore(st); err != nil {
					t.Fatalf("step %d: restore: %v", step, err)
				}
				ts, tab = ts2, fresh
			}
			compareTables(t, fmt.Sprintf("step %d at %v", step, ts.Now()), tab, ref)
		}
	})
}

// compareTables fails t unless every observable of tab equals ref's.
func compareTables(t *testing.T, where string, tab *Table, ref *mapTable) {
	t.Helper()
	if tab.Count() != ref.Count() {
		t.Fatalf("%s: Count %d, reference %d", where, tab.Count(), ref.Count())
	}
	if got, want := tab.Neighbors(), ref.Neighbors(); !slices.Equal(got, want) {
		t.Fatalf("%s: Neighbors %v, reference %v", where, got, want)
	}
	for b := 0; b < 256; b++ {
		h := fuzzID(byte(b))
		if got, want := tab.TwoHop(h), ref.TwoHop(h); !slices.Equal(got, want) {
			t.Fatalf("%s: TwoHop(%d) %v, reference %v", where, h, got, want)
		}
	}
	var audited []EntryState
	tab.AuditEntries(func(id packet.NodeID, lastHeard sim.Time, interval sim.Duration) {
		audited = append(audited, EntryState{ID: id, LastHeard: lastHeard, Interval: interval})
	})
	want := ref.Snapshot()
	if len(audited) != len(want.Entries) {
		t.Fatalf("%s: AuditEntries visited %d entries, reference has %d", where, len(audited), len(want.Entries))
	}
	for i, a := range audited {
		if w := want.Entries[i]; a.ID != w.ID || a.LastHeard != w.LastHeard || a.Interval != w.Interval {
			t.Fatalf("%s: AuditEntries[%d] = %+v, reference %+v", where, i, a, w)
		}
	}
	if tab.Variation() != ref.Variation() {
		t.Fatalf("%s: Variation %v, reference %v", where, tab.Variation(), ref.Variation())
	}
	if want := min(ref.Count(), 1); tab.PendingEvents() != want || tab.sched.Pending() != want {
		t.Fatalf("%s: %d pending events (%d on the scheduler) for %d neighbors, want %d",
			where, tab.PendingEvents(), tab.sched.Pending(), ref.Count(), want)
	}
	got := tab.Snapshot()
	if !slices.Equal(got.Changes, want.Changes) || len(got.Entries) != len(want.Entries) {
		t.Fatalf("%s: Snapshot %+v, reference %+v", where, got, want)
	}
	for i, g := range got.Entries {
		w := want.Entries[i]
		if g.ID != w.ID || g.LastHeard != w.LastHeard || g.Interval != w.Interval ||
			g.Deadline != w.Deadline || g.ExpirySeq != w.ExpirySeq || !slices.Equal(g.TwoHop, w.TwoHop) {
			t.Fatalf("%s: Snapshot entry %d = %+v, reference %+v", where, i, g, w)
		}
	}
}

func TestDenseExpiry(t *testing.T) {
	sched := sim.NewScheduler()
	tab := NewTable(1, sched, 0, 8)
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
	tab := NewTable(0, sched, 0, 16)
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

// TestAnnounceIsImmutable: Announce agrees with Neighbors, and the
// announced slice keeps its contents through the joins and leaves that
// follow — receivers keep it as their two-hop set — while Neighbors
// moves on. A second announcement with no change in between shares the
// first one's storage.
func TestAnnounceIsImmutable(t *testing.T) {
	sched := sim.NewScheduler()
	tab := NewTable(0, sched, 0, 8)
	tab.OnHello(5, nil, sim.Second)
	tab.OnHello(2, nil, 2*sim.Second)
	out := tab.Announce()
	want := []packet.NodeID{2, 5}
	if !slices.Equal(out, want) || !slices.Equal(tab.Neighbors(), want) {
		t.Fatalf("Announce = %v, Neighbors = %v, want %v", out, tab.Neighbors(), want)
	}
	if again := tab.Announce(); &again[0] != &out[0] {
		t.Error("an unchanged table copied its ids for a second announcement")
	}
	tab.OnHello(3, nil, sim.Second)            // join: 2 3 5
	sched.RunUntil(sim.Time(2*sim.Second + 1)) // 5 and 3 expire: 2
	tab.OnHello(1, nil, sim.Second)            // join: 1 2
	if !slices.Equal(out, want) {
		t.Errorf("announced slice changed to %v, want %v", out, want)
	}
	if got := tab.Neighbors(); !slices.Equal(got, []packet.NodeID{1, 2}) {
		t.Errorf("Neighbors = %v after the changes, want [1 2]", got)
	}
}

// TestRefreshLeavesEventQueued pins the cost of a HELLO: a table keeps
// one expiry event, and a refresh touches the scheduler only when its
// key comes before the queued one. Any other refresh leaves the event
// where it is (it moves later by itself when reached): the same record,
// at the same (At, Seq) key.
func TestRefreshLeavesEventQueued(t *testing.T) {
	sched := sim.NewScheduler()
	tab := NewTable(0, sched, 0, 16)
	tab.OnHello(1, nil, 2*sim.Second)
	ev := tab.expiry
	at, seq := ev.At(), ev.Seq()
	unmoved := func() bool { return tab.expiry == ev && ev.At() == at && ev.Seq() == seq }
	for h := packet.NodeID(2); h <= 5; h++ {
		tab.OnHello(h, nil, 2*sim.Second)
	}
	if !unmoved() || sched.Pending() != 1 || tab.PendingEvents() != 1 {
		t.Fatalf("joins moved the expiry event or left %d pending events, want it at (%v, %d) and 1", sched.Pending(), at, seq)
	}
	sched.RunUntil(sim.Time(sim.Second))
	for h := packet.NodeID(1); h <= 5; h++ {
		tab.OnHello(h, nil, 2*sim.Second)
	}
	if !unmoved() || sched.Pending() != 1 {
		t.Fatalf("refreshes that keep the earliest key later moved the expiry event to (%v, %d), want (%v, %d)",
			tab.expiry.At(), tab.expiry.Seq(), at, seq)
	}
	tab.OnHello(3, nil, sim.Second/2) // a shrunk interval: deadline 2 s, before the queued 4 s
	if tab.expiry == ev || tab.expiry.At() != sim.Time(2*sim.Second) || sched.Pending() != 1 {
		t.Fatalf("an earlier key left the expiry event at %v with %d pending, want a new one at 2s and 1", tab.expiry.At(), sched.Pending())
	}
	executed := sched.Executed()
	sched.RunUntil(sim.Time(5 * sim.Second))
	if n := sched.Executed() - executed; n != 5 || tab.Count() != 0 || tab.PendingEvents() != 0 {
		t.Errorf("expiring five neighbors fired %d events and left %d neighbors, want 5 and 0", n, tab.Count())
	}
}

func TestNeighborSetExposure(t *testing.T) {
	sched := sim.NewScheduler()
	d := NewTable(0, sched, 0, 8)
	d.OnHello(4, nil, sim.Second)
	if s := d.NeighborSet(); s == nil || !s.Contains(4) || s.Count() != 1 {
		t.Error("NeighborSet does not reflect membership")
	}
}

// TestDenseLazyAllocation pins the O(1)-until-used contract: construction
// allocates neither the membership bitset nor any record, a never-touched
// table answers every read-only query without allocating them, and the
// first HELLO brings up the bitset and room for a few neighbors.
func TestDenseLazyAllocation(t *testing.T) {
	sched := sim.NewScheduler()
	tab := NewTable(0, sched, 0, 1<<20)
	if tab.present != nil || cap(tab.live) != 0 || cap(tab.ids) != 0 {
		t.Fatal("storage allocated at construction")
	}
	if tab.Count() != 0 || tab.Contains(3) || tab.TwoHop(3) != nil {
		t.Fatal("idle table reports phantom neighbors")
	}
	if got := tab.Neighbors(); len(got) != 0 {
		t.Fatalf("idle Neighbors = %v, want empty", got)
	}
	if got := tab.Announce(); len(got) != 0 {
		t.Fatalf("idle Announce = %v, want empty", got)
	}
	tab.AuditEntries(func(packet.NodeID, sim.Time, sim.Duration) {
		t.Fatal("idle AuditEntries visited an entry")
	})
	if st := tab.Snapshot(); len(st.Entries) != 0 {
		t.Fatal("idle Snapshot has entries")
	}
	tab.Clear() // must tolerate never-allocated storage
	if tab.present != nil || cap(tab.live) != 0 {
		t.Fatal("read-only queries allocated the table's storage")
	}
	tab.OnHello(9, []packet.NodeID{1, 2}, sim.Second)
	if tab.present == nil || len(tab.live) != 1 || len(tab.ids) != 1 || cap(tab.live) > 8 {
		t.Fatalf("first OnHello left %d live records with room for %d, want 1 with room for 8",
			len(tab.live), cap(tab.live))
	}
	if !tab.Contains(9) || tab.Count() != 1 || len(tab.TwoHop(9)) != 2 {
		t.Fatal("table not usable after the first HELLO")
	}
	// NeighborSet must uphold the non-nil contract even on an untouched
	// table (coverage judges copy it when they start).
	fresh := NewTable(1, sched, 0, 8)
	if fresh.NeighborSet() == nil {
		t.Fatal("NeighborSet returned nil on an untouched table")
	}
}

func TestDenseTableRejectsZeroHosts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTable(hosts=0) did not panic")
		}
	}()
	NewTable(0, sim.NewScheduler(), 0, 0)
}

// TestOnHelloRejectsOutsidePopulation: a HELLO from an id the population
// does not have is refused with a panic naming the id and the
// population, rather than growing the bitset to fit it.
func TestOnHelloRejectsOutsidePopulation(t *testing.T) {
	for _, h := range []packet.NodeID{8, 64, 1 << 20, -1} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprintf("host %d ", h)) || !strings.Contains(msg, "8 hosts") {
					t.Errorf("OnHello(%d) in a population of 8: panic %q, want one naming the id and the population", h, msg)
				}
			}()
			NewTable(0, sim.NewScheduler(), 0, 8).OnHello(h, nil, sim.Second)
		}()
	}
}

// TestClearReusesStorage: Clear must retain backing storage instead of
// reallocating, and the table must be fully usable afterwards. Records
// are not tied to ids: refilling with different neighbors reuses them
// too.
func TestClearReusesStorage(t *testing.T) {
	sched := sim.NewScheduler()
	tab := NewTable(0, sched, 0, 64)
	// The table keeps the announced sets it is given, so the refills
	// below hand it sets made up front, as senders' Announce does.
	announced := make([][]packet.NodeID, 61)
	for h := range announced {
		announced[h] = []packet.NodeID{packet.NodeID(h)}
	}
	for h := packet.NodeID(1); h <= 20; h++ {
		tab.OnHello(h, announced[h], sim.Second)
	}
	pendingBefore := sched.Pending()
	tab.Clear()
	if tab.Count() != 0 {
		t.Fatalf("Count = %d after Clear", tab.Count())
	}
	if sched.Pending() != pendingBefore-1 || tab.PendingEvents() != 0 {
		t.Errorf("Clear left the expiry event pending")
	}
	if tab.Variation() != 0 {
		t.Errorf("change log survived Clear")
	}
	// Steady-state Clear/refill cycles must not allocate, whichever ids
	// come back. The scheduler is drained each cycle so the cancelled
	// expiry event returns to its event pool — in a real run Step does
	// that collection; here nothing ever steps.
	base := packet.NodeID(0)
	avg := testing.AllocsPerRun(20, func() {
		base = 40 - base // alternate between ids 1..20 and 41..60
		for h := base + 1; h <= base+20; h++ {
			tab.OnHello(h, announced[h], sim.Second)
		}
		tab.Clear()
		sched.Drain()
	})
	// The expiry event is pooled by the scheduler, and records are
	// parked by Clear and taken back by the next joins, so a warm cycle
	// allocates nothing.
	if avg > 0 {
		t.Errorf("Clear/refill cycle allocates %.1f objects, want 0", avg)
	}
	tab.OnHello(7, nil, sim.Second)
	if !tab.Contains(7) || tab.Count() != 1 {
		t.Errorf("table unusable after Clear")
	}
}

// TestExpiredRecordsAreReused: a neighbor that joins after another
// expired takes over the expired one's record, and the table's expiry
// event the scheduler recycled, and allocates nothing.
func TestExpiredRecordsAreReused(t *testing.T) {
	sched := sim.NewScheduler()
	tab := NewTable(0, sched, 0, 3000)
	tab.OnHello(2000, []packet.NodeID{1, 2, 3}, sim.Second)
	announced := []packet.NodeID{4, 5, 6} // kept by the table, so made up front
	rec := tab.live[0]
	sched.RunUntil(sim.Time(3 * sim.Second))
	if tab.Count() != 0 {
		t.Fatal("neighbor did not expire")
	}
	// Room for the join in the change log, whose amortized growth is not
	// what this test is about.
	tab.changes = slices.Grow(tab.changes, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab.OnHello(5, announced, sim.Second)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("rejoin after expiry allocated %d objects, want 0", allocs)
	}
	if tab.live[0] != rec {
		t.Error("the joining neighbor did not take over the expired record")
	}
	sched.RunUntil(sim.Time(4 * sim.Second))
	if !tab.Contains(5) {
		t.Fatal("the reused record expired early")
	}
	sched.RunUntil(sim.Time(6 * sim.Second))
	if tab.Count() != 0 {
		t.Fatal("the reused record's expiry did not drop its new neighbor")
	}
}

// TestTableMemoryScalesWithDegree: a table in a million-host population
// that hears ten neighbors costs its bitset (125 KB) and ten records, not
// a slot per host, and the header stays within 120 bytes on 64-bit
// platforms (a mega-scale world carries one per host).
func TestTableMemoryScalesWithDegree(t *testing.T) {
	const hosts = 1_000_000
	sched := sim.NewScheduler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := NewTable(0, sched, 0, hosts)
	for _, h := range []packet.NodeID{7, 100, 500, 1000, 1023, 1024, 5000, 99_991, 500_000, 999_999} {
		tab.OnHello(h, []packet.NodeID{1, 2, 3}, sim.Second)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a table with 10 neighbors in %d hosts allocated %d bytes, budget 1 MiB", hosts, got)
	}
	if tab.Count() != 10 {
		t.Fatalf("Count = %d, want 10", tab.Count())
	}
	if size := unsafe.Sizeof(Table{}); unsafe.Sizeof(uintptr(0)) == 8 && size > 120 {
		t.Errorf("Table header is %d bytes, budget 120", size)
	}
}
