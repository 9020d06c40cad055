// Package neighbor implements the neighbor-discovery machinery the
// paper's adaptive schemes depend on: a per-host neighbor table built
// from periodic HELLO packets (one- and two-hop knowledge), entry expiry
// after two missed hello intervals, the neighborhood-variation estimator
// nv_x, and the dynamic hello interval (DHI) function
//
//	hi_x = max(himin, (nvmax - nv_x)/nvmax * himax).
package neighbor

import (
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

// DHIConfig parameterizes the dynamic hello interval. The values in
// DefaultDHIConfig are the ones the paper simulates with.
type DHIConfig struct {
	NVMax float64      // maximum neighborhood variation (paper: 0.02)
	HIMin sim.Duration // shortest hello interval (paper: 1,000 ms)
	HIMax sim.Duration // longest hello interval (paper: 10,000 ms)
}

// DefaultDHIConfig returns the paper's DHI parameters.
func DefaultDHIConfig() DHIConfig {
	return DHIConfig{NVMax: 0.02, HIMin: 1 * sim.Second, HIMax: 10 * sim.Second}
}

// Interval evaluates the dynamic hello interval for a neighborhood
// variation nv.
func (c DHIConfig) Interval(nv float64) sim.Duration {
	if c.NVMax <= 0 {
		return c.HIMax
	}
	frac := (c.NVMax - nv) / c.NVMax
	hi := sim.Duration(frac * float64(c.HIMax))
	if hi < c.HIMin {
		return c.HIMin
	}
	if hi > c.HIMax {
		return c.HIMax
	}
	return hi
}

// entry is one one-hop neighbor record.
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
// The layout exploits the simulators' dense 0..N-1 host ids: entries live
// in a flat array indexed by NodeID with membership in a bitset, so
// lookups are an array index and the sorted neighbor list is a popcount
// walk.
type Table struct {
	owner           packet.NodeID
	sched           *sim.Scheduler
	expiryIntervals int

	// Slot i holds the entry for NodeID i, live iff present.Contains(i).
	// neighbors caches the sorted id list between mutations. The O(hosts)
	// backing storage (dense, present) is materialized lazily on first
	// use: an idle table costs O(1), which keeps network construction
	// O(hosts) instead of O(hosts²) at mega scale, and a HELLO-off run
	// never pays at all.
	hosts     int
	dense     []entry
	present   *nodeset.Set
	neighbors []packet.NodeID
	dirty     bool

	changes []sim.Time // join/leave timestamps within the variation window
}

// NewDenseTable creates an empty table for a host in a population whose
// ids are exactly 0..hosts-1, using flat-array storage and bitset
// membership. The storage itself is allocated on first use, so building
// tables for a large, mostly idle population is O(1) per table.
// expiryIntervals <= 0 uses the paper's default of 2.
func NewDenseTable(owner packet.NodeID, sched *sim.Scheduler, expiryIntervals, hosts int) *Table {
	t := &Table{}
	InitDenseTable(t, owner, sched, expiryIntervals, hosts)
	return t
}

// InitDenseTable initializes a caller-allocated Table in place as a
// dense table, for slab construction: building a mega-scale population
// one NewDenseTable at a time costs one heap object per host, while a
// []Table slab costs one for the whole world.
func InitDenseTable(t *Table, owner packet.NodeID, sched *sim.Scheduler, expiryIntervals, hosts int) {
	if hosts < 1 {
		panic("neighbor: dense table needs a positive population size")
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

// ensureDense materializes the table's backing storage.
func (t *Table) ensureDense() {
	if t.dense == nil {
		t.dense = make([]entry, t.hosts)
		t.present = nodeset.New(t.hosts)
	}
}

// OnHello records a HELLO from host h announcing its neighbor set and
// hello interval, refreshing (or creating) the one-hop entry and its
// expiry timer. The neighbors slice is copied into entry-owned storage
// (reusing its capacity), so callers may recycle the frame that carried
// it as soon as OnHello returns.
func (t *Table) OnHello(h packet.NodeID, neighbors []packet.NodeID, interval sim.Duration) {
	if h == t.owner {
		return
	}
	now := t.sched.Now()
	t.ensureDense()
	e := &t.dense[h]
	if t.present.Add(h) {
		t.dirty = true
		t.recordChange(now)
	}
	e.id = h
	e.lastHeard = now
	if interval <= 0 {
		interval = 1 * sim.Second
	}
	e.interval = interval
	e.twoHop = append(e.twoHop[:0], neighbors...)
	if e.expiry != nil {
		t.sched.Cancel(e.expiry)
	}
	if e.fire == nil {
		e.fire = func() { t.expire(e.id, e.deadline) }
	}
	e.deadline = now.Add(sim.Duration(t.expiryIntervals) * interval)
	e.expiry = t.sched.Schedule(e.deadline, e.fire)
}

// expire drops h if it has not been refreshed since the timer was set.
// The stored expiry handle is cleared on every path: the scheduler
// recycles fired events, so a retained handle would go stale.
func (t *Table) expire(h packet.NodeID, deadline sim.Time) {
	if t.present == nil || !t.present.Contains(h) {
		return
	}
	e := &t.dense[h]
	if e.lastHeard.Add(sim.Duration(t.expiryIntervals)*e.interval) > deadline {
		return // refreshed since; OnHello already replaced the handle
	}
	e.expiry = nil
	e.twoHop = e.twoHop[:0] // keep the backing array for the next tenant
	t.present.Remove(h)
	t.dirty = true
	t.recordChange(t.sched.Now())
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
func (t *Table) Count() int {
	if t.present == nil {
		return 0
	}
	return t.present.Count()
}

// Neighbors returns the sorted one-hop neighbor set N_x. The slice is a
// cached view that is only valid until the next table mutation; callers
// must not modify it and must copy it to retain it (packet.NewHello
// already copies).
func (t *Table) Neighbors() []packet.NodeID {
	if t.dirty {
		t.neighbors = t.present.AppendIDs(t.neighbors[:0])
		t.dirty = false
	}
	return t.neighbors
}

// AppendNeighbors appends the sorted one-hop neighbor set to buf and
// returns the extended slice, allocating only when buf lacks capacity.
func (t *Table) AppendNeighbors(buf []packet.NodeID) []packet.NodeID {
	if t.present == nil {
		return buf
	}
	return t.present.AppendIDs(buf)
}

// NeighborSet exposes the one-hop membership bitset. It is live storage:
// callers must not mutate it, and its contents shift with the table.
// Asking for the set materializes the lazy storage — only hosts whose
// neighborhood is actually consulted (coverage-scheme judges) pay for it.
func (t *Table) NeighborSet() *nodeset.Set {
	t.ensureDense()
	return t.present
}

// TwoHop returns N_{x,h}: h's neighbor set exactly as last announced to
// this host (it may include the owner itself), or nil if h is unknown.
// The returned slice is shared storage; callers must not modify it.
func (t *Table) TwoHop(h packet.NodeID) []packet.NodeID {
	if t.present != nil && int(h) < len(t.dense) && t.present.Contains(h) {
		return t.dense[h].twoHop
	}
	return nil
}

// AuditEntries calls f for every live one-hop entry with the id, the
// time its last HELLO was heard, and the hello interval it announced.
// It is an observation-only walk for the invariant auditor: the table
// is not mutated and no expiry timers are touched.
func (t *Table) AuditEntries(f func(id packet.NodeID, lastHeard sim.Time, interval sim.Duration)) {
	if t.present == nil {
		return
	}
	t.present.ForEach(func(h packet.NodeID) {
		e := &t.dense[h]
		f(e.id, e.lastHeard, e.interval)
	})
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
