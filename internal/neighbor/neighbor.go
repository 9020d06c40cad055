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

// entry is one one-hop neighbor record. A record never moves: fire is
// bound to its address once, and when its neighbor expires the table
// keeps the record (with its twoHop capacity and fire) for the next
// neighbor to join.
type entry struct {
	id        packet.NodeID
	lastHeard sim.Time
	interval  sim.Duration // the neighbor's announced hello interval
	deadline  sim.Time     // expiry deadline of the armed timer
	// twoHop is the neighbor set the host last announced, copied into
	// entry-owned storage whose capacity is reused across refreshes (so a
	// stable neighborhood allocates nothing and the HELLO frame may be
	// recycled by its sender).
	twoHop []packet.NodeID
	expiry *sim.Event
	// fire is the expiry callback, bound once per record and reused for
	// every rearm (it reads id and deadline from the record), so
	// refreshing a neighbor allocates nothing.
	fire func()
}

// Table is one host's view of its neighborhood, fed by HELLO receptions.
// All knowledge is local and possibly stale — exactly the information
// the paper allows the schemes to use.
//
// Host ids are exactly 0..hosts-1. Membership is a bitset over them
// (hosts/8 bytes, allocated on first use, so an idle table costs only
// its header); the live neighbors are an ascending id list with one
// record each, so a table's remaining storage follows its degree.
type Table struct {
	owner           packet.NodeID
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
// expiry timer. The neighbors slice is copied into entry-owned storage
// (reusing its capacity), so callers may recycle the frame that carried
// it as soon as OnHello returns. A sender outside the population is a
// caller bug and panics.
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
	e.twoHop = append(e.twoHop[:0], neighbors...)
	if e.expiry != nil {
		t.sched.Cancel(e.expiry)
	}
	e.deadline = now.Add(sim.Duration(t.expiryIntervals) * interval)
	e.expiry = t.sched.Schedule(e.deadline, e.fire)
}

// find returns the position h holds, or would take, in ids — the number
// of live neighbors below it — and whether h is a live neighbor.
func (t *Table) find(h packet.NodeID) (int, bool) {
	return slices.BinarySearch(t.ids, h)
}

// insert makes h, which must not be a live neighbor yet, one at
// position i of ids (as find reported it) and returns its record, the
// first of those waiting past the end of live. The caller fills in and
// arms the record.
func (t *Table) insert(i int, h packet.NodeID) *entry {
	t.NeighborSet().Add(h) // allocates the bitset on the first join
	n := len(t.live)
	if n == cap(t.live) {
		t.grow()
	}
	e := t.live[:n+1][n]
	if e.fire == nil {
		e.fire = func() { t.expire(e) }
	}
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
	t.ids = ids
}

// expire drops e's neighbor if it has not been refreshed since the timer
// was set. The stored expiry handle is cleared with the record: the
// scheduler recycles fired events, so a retained handle would go stale.
func (t *Table) expire(e *entry) {
	if e.lastHeard.Add(sim.Duration(t.expiryIntervals)*e.interval) > e.deadline {
		return // refreshed since; OnHello already replaced the handle
	}
	i, _ := t.find(e.id)
	t.remove(i)
	t.recordChange(t.sched.Now())
}

// remove retires the live neighbor at index i, parking its record just
// past the end of live (its twoHop backing array kept) for the next
// neighbor to join. The record's timer must not be armed.
func (t *Table) remove(i int) {
	e := t.live[i]
	e.expiry = nil
	e.twoHop = e.twoHop[:0]
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

// AppendNeighbors appends the sorted one-hop neighbor set to buf and
// returns the extended slice, allocating only when buf lacks capacity.
func (t *Table) AppendNeighbors(buf []packet.NodeID) []packet.NodeID {
	return append(buf, t.ids...)
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
// The returned slice is shared storage; callers must not modify it.
func (t *Table) TwoHop(h packet.NodeID) []packet.NodeID {
	if i, ok := t.find(h); ok {
		return t.live[i].twoHop
	}
	return nil
}

// AuditEntries calls f for every live one-hop entry, in ascending id
// order, with the id, the time its last HELLO was heard, and the hello
// interval it announced. It is an observation-only walk for the
// invariant auditor: the table is not mutated and no expiry timers are
// touched.
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
