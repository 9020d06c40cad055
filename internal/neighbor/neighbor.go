// Package neighbor implements the neighbor-discovery machinery the
// paper's adaptive schemes depend on: a per-host neighbor table built
// from periodic HELLO packets (one- and two-hop knowledge), entry expiry
// after two missed hello intervals, the neighborhood-variation estimator
// nv_x, and the dynamic hello interval (DHI) function
//
//	hi_x = max(himin, (nvmax - nv_x)/nvmax * himax).
//
// A table's storage grows with its host's degree, not with the
// population: one record per current neighbor plus a membership bitset
// of one bit per host.
package neighbor

import (
	"fmt"
	"slices"

	"repro/internal/nodeset"
	"repro/internal/packet"
	"repro/internal/sim"
)

// DefaultExpiryIntervals is the paper's rule: a neighbor is dropped when
// no HELLO has been received for two of its hello intervals.
const DefaultExpiryIntervals = 2

// VariationWindow is the look-back window of the neighborhood-variation
// estimator (the paper uses the past 10 seconds).
const VariationWindow = 10 * sim.Second

// The dynamic hello interval's parameters, as the paper simulates them.
const (
	NVMax = 0.02            // maximum neighborhood variation
	HIMin = 1 * sim.Second  // shortest hello interval
	HIMax = 10 * sim.Second // longest hello interval
)

// DHIInterval evaluates the dynamic hello interval for a neighborhood
// variation nv.
func DHIInterval(nv float64) sim.Duration {
	frac := (NVMax - nv) / NVMax
	hi := sim.Duration(frac * float64(HIMax))
	if hi < HIMin {
		return HIMin
	}
	if hi > HIMax {
		return HIMax
	}
	return hi
}

// entry is one one-hop neighbor record. When its neighbor expires the
// table keeps the record for the next neighbor to join.
type entry struct {
	id        packet.NodeID
	lastHeard sim.Time
	interval  sim.Duration // the neighbor's announced hello interval
	// deadline and seq are the entry's expiry key: the neighbor leaves
	// at deadline unless a HELLO comes first, and seq, drawn from the
	// scheduler at the last HELLO, orders it among same-instant events.
	deadline sim.Time
	seq      uint64
	// twoHop is the neighbor set the host last announced: the sender's
	// own announced slice, shared by every receiver and never modified
	// (see Table.Announce).
	twoHop []packet.NodeID
}

// Table is one host's view of its neighborhood, fed by HELLO receptions.
// All knowledge is local and possibly stale — exactly the information
// the paper allows the schemes to use.
//
// Host ids are exactly 0..hosts-1. Membership is a bitset over them
// (hosts/8 bytes, allocated on first use, so an idle table costs only
// its header); the live neighbors are an ascending id list with one
// record each, so a table's remaining storage follows its degree.
//
// Expiry runs on one scheduler event per table, not one per neighbor:
// the table is the event's sim.Keyed owner, and its key is the earliest
// (deadline, seq) among the entries. A refresh only moves its entry's
// key; the queued event catches up lazily when the scheduler reaches
// it, and is re-armed eagerly only when a key moves before it.
type Table struct {
	owner packet.NodeID
	// announced marks ids as handed out by Announce: the next membership
	// change copies it instead of editing it in place.
	announced       bool
	sched           *sim.Scheduler
	expiryIntervals int
	hosts           int

	// present is the membership bitset; ids lists the live neighbors in
	// ascending order and live[i] is the record of ids[i]. Every slot of
	// live up to its capacity holds a record: those past the end (expired
	// neighbors' records, and fresh ones from grow) wait to be reused.
	present *nodeset.Set
	ids     []packet.NodeID
	live    []*entry

	changes []sim.Time // join/leave timestamps within the variation window

	// expiry is the table's one expiry event, armed exactly while the
	// table has neighbors, at or before the earliest entry key.
	expiry *sim.Event
}

// NewTable creates an empty table for a host in a population whose ids
// are exactly 0..hosts-1. Nothing beyond the Table itself is allocated
// until the table is used. expiryIntervals <= 0 uses the paper's default
// of 2.
func NewTable(owner packet.NodeID, sched *sim.Scheduler, expiryIntervals, hosts int) *Table {
	t := &Table{}
	InitTable(t, owner, sched, expiryIntervals, hosts)
	return t
}

// NewDenseTable is the former name of NewTable.
//
// Deprecated: use NewTable. The benchmark module still calls this name.
func NewDenseTable(owner packet.NodeID, sched *sim.Scheduler, expiryIntervals, hosts int) *Table {
	return NewTable(owner, sched, expiryIntervals, hosts)
}

// InitTable initializes a caller-allocated Table in place, for slab
// construction: building a mega-scale population one NewTable at a time
// costs one heap object per host, while a []Table slab costs one for
// the whole world. It overwrites every field, dropping whatever storage
// the Table held before.
func InitTable(t *Table, owner packet.NodeID, sched *sim.Scheduler, expiryIntervals, hosts int) {
	if hosts < 1 {
		panic("neighbor: a table needs a positive population size")
	}
	if expiryIntervals <= 0 {
		expiryIntervals = DefaultExpiryIntervals
	}
	*t = Table{
		owner:           owner,
		sched:           sched,
		expiryIntervals: expiryIntervals,
		hosts:           hosts,
	}
}

// OnHello records a HELLO from host h announcing its neighbor set and
// hello interval, refreshing (or creating) the one-hop entry and its
// expiry key. The table keeps the neighbors slice itself as h's two-hop
// set, so it must never be modified afterwards — Announce's slices
// never are. A sender outside the population is a caller bug and
// panics.
func (t *Table) OnHello(h packet.NodeID, neighbors []packet.NodeID, interval sim.Duration) {
	if h == t.owner {
		return
	}
	if h < 0 || int(h) >= t.hosts {
		panic(fmt.Sprintf("neighbor: HELLO from host %d outside the population of %d hosts (ids 0..%d)", h, t.hosts, t.hosts-1))
	}
	now := t.sched.Now()
	var e *entry
	if i, ok := t.find(h); ok {
		e = t.live[i]
	} else {
		e = t.insert(i, h)
		t.recordChange(now)
	}
	e.lastHeard = now
	if interval <= 0 {
		interval = 1 * sim.Second
	}
	e.interval = interval
	e.twoHop = neighbors
	e.deadline = now.Add(sim.Duration(t.expiryIntervals) * interval)
	e.seq = t.sched.NextSeq()
	// The fresh seq is the largest yet drawn, so the new key comes
	// before the queued one only if its deadline is strictly earlier;
	// otherwise the queued event stays, and moves later by itself if
	// this refresh moved the earliest key.
	if ev := t.expiry; ev != nil {
		if ev.At() <= e.deadline {
			return
		}
		t.sched.Cancel(ev)
	}
	t.expiry = t.sched.ScheduleKeyed(t)
}

// EventKey implements sim.Keyed: the table's expiry event belongs at its
// earliest entry key.
func (t *Table) EventKey() (sim.Time, uint64) {
	e := t.live[t.earliest()]
	return e.deadline, e.seq
}

// RunEvent implements sim.Runner: the earliest entry's deadline passed
// with no HELLO since, so its neighbor leaves, and the event is re-armed
// for the next earliest entry, if any.
func (t *Table) RunEvent() {
	t.expiry = nil // the scheduler recycles the firing event
	t.remove(t.earliest())
	t.recordChange(t.sched.Now())
	if len(t.live) > 0 {
		t.expiry = t.sched.ScheduleKeyed(t)
	}
}

// earliest returns the index of the live entry with the earliest expiry
// key. The table must have a neighbor.
func (t *Table) earliest() int {
	first := 0
	for i, e := range t.live {
		if f := t.live[first]; e.deadline < f.deadline || e.deadline == f.deadline && e.seq < f.seq {
			first = i
		}
	}
	return first
}

// find returns the position h holds, or would take, in ids — the number
// of live neighbors below it — and whether h is a live neighbor.
func (t *Table) find(h packet.NodeID) (int, bool) {
	return slices.BinarySearch(t.ids, h)
}

// insert makes h, which must not be a live neighbor yet, one at
// position i of ids (as find reported it) and returns its record, the
// first of those waiting past the end of live. The caller fills in the
// record and arms the table's expiry event.
func (t *Table) insert(i int, h packet.NodeID) *entry {
	t.NeighborSet().Add(h) // allocates the bitset on the first join
	n := len(t.live)
	if n == cap(t.live) {
		t.grow()
	} else {
		t.unshare()
	}
	e := t.live[:n+1][n]
	e.id = h
	// Shifting live[i:n] up one overwrites live[n], the slot e came from,
	// so the other waiting records stay where they were.
	t.live = slices.Insert(t.live, i, e)
	t.ids = slices.Insert(t.ids, i, h)
	return e
}

// grow doubles the table's room for neighbors (to at least 8, and never
// past the hosts-1 a table can hold): new live and ids arrays, and one
// block of fresh records to wait in the new slots. Records already made
// keep their addresses.
func (t *Table) grow() {
	n := len(t.live)
	c := min(max(8, 2*n), t.hosts-1)
	live := make([]*entry, n, c)
	copy(live, t.live)
	block := make([]entry, c-n)
	for i := range block {
		live[:c][n+i] = &block[i]
	}
	t.live = live
	ids := make([]packet.NodeID, n, c)
	copy(ids, t.ids)
	t.ids, t.announced = ids, false
}

// unshare gives the table a private copy of ids, with room for cap(live)
// neighbors, if the current one has been announced.
func (t *Table) unshare() {
	if t.announced {
		t.ids = append(make([]packet.NodeID, 0, cap(t.live)), t.ids...)
		t.announced = false
	}
}

// remove retires the live neighbor at index i, parking its record just
// past the end of live for the next neighbor to join.
func (t *Table) remove(i int) {
	t.unshare()
	e := t.live[i]
	e.twoHop = nil // the sender's announced set is not ours to pin
	t.present.Remove(e.id)
	t.ids = slices.Delete(t.ids, i, i+1)
	last := len(t.live) - 1
	copy(t.live[i:], t.live[i+1:])
	t.live[last] = e
	t.live = t.live[:last]
}

// recordChange logs a join/leave for the variation estimator, pruning
// events that fell out of the window.
func (t *Table) recordChange(now sim.Time) {
	t.changes = append(t.changes, now)
	cut := 0
	for cut < len(t.changes) && t.changes[cut].Add(VariationWindow) < now {
		cut++
	}
	if cut > 0 {
		t.changes = append(t.changes[:0], t.changes[cut:]...)
	}
}

// Count returns the current number of one-hop neighbors |N_x| — the "n"
// the adaptive threshold functions C(n) and A(n) consume.
func (t *Table) Count() int { return len(t.ids) }

// Neighbors returns the sorted one-hop neighbor set N_x. The slice is
// the table's own storage and only valid until the next table mutation;
// callers must not modify it and must copy it to retain it.
func (t *Table) Neighbors() []packet.NodeID { return t.ids }

// Announce returns the sorted one-hop neighbor set for a HELLO beacon.
// Unlike Neighbors' view, the announced slice never changes: the table
// copies its id list before the next membership change instead of
// editing it in place, so every receiver keeps the announced slice
// itself as its two-hop set for this host. Callers must not modify it.
func (t *Table) Announce() []packet.NodeID {
	if len(t.ids) > 0 { // an empty announcement shares no element
		t.announced = true
	}
	return slices.Clip(t.ids)
}

// NeighborSet exposes the one-hop membership bitset. It is live storage:
// callers must not mutate it, and its contents shift with the table.
// Asking for the set allocates it if no HELLO has yet: only hosts whose
// neighborhood is heard or consulted pay its hosts/8 bytes.
func (t *Table) NeighborSet() *nodeset.Set {
	if t.present == nil {
		t.present = nodeset.New(t.hosts)
	}
	return t.present
}

// TwoHop returns N_{x,h}: h's neighbor set exactly as last announced to
// this host (it may include the owner itself), or nil if h is unknown.
// The returned slice is h's announced set, shared with every other
// receiver; callers must not modify it.
func (t *Table) TwoHop(h packet.NodeID) []packet.NodeID {
	if i, ok := t.find(h); ok {
		return t.live[i].twoHop
	}
	return nil
}

// AuditEntries calls f for every live one-hop entry, in ascending id
// order, with the id, the time its last HELLO was heard, and the hello
// interval it announced. It is an observation-only walk for the
// invariant auditor: the table is not mutated and its expiry event is
// not touched.
func (t *Table) AuditEntries(f func(id packet.NodeID, lastHeard sim.Time, interval sim.Duration)) {
	for _, e := range t.live {
		f(e.id, e.lastHeard, e.interval)
	}
}

// Variation returns nv_x: the number of hosts that joined or left N_x
// within the past VariationWindow, normalized by |N_x| times the window
// length in seconds. An empty neighborhood uses |N_x| = 1 to keep the
// estimator defined.
func (t *Table) Variation() float64 {
	now := t.sched.Now()
	n := 0
	for _, ts := range t.changes {
		if ts.Add(VariationWindow) >= now {
			n++
		}
	}
	size := t.Count()
	if size < 1 {
		size = 1
	}
	return float64(n) / (float64(size) * VariationWindow.Seconds())
}
