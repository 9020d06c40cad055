package neighbor

import (
	"repro/internal/packet"
	"repro/internal/sim"
)

// newTable returns an empty table for owner in a population of 64 hosts
// with the paper's expiry rule.
func newTable(owner packet.NodeID, sched *sim.Scheduler) *Table {
	return NewTable(owner, sched, 0, 64)
}

// Contains reports whether h is currently a known one-hop neighbor.
func (t *Table) Contains(h packet.NodeID) bool {
	return t.present != nil && t.present.Contains(h)
}

// Clear drops all entries and cancels the expiry event. The backing
// storage — the records, parked for reuse, and the change log — is
// retained rather than reallocated.
func (t *Table) Clear() {
	t.sched.Cancel(t.expiry)
	t.expiry = nil
	for _, e := range t.live {
		e.twoHop = nil
	}
	if t.present != nil {
		t.present.Clear()
	}
	t.ids = t.ids[:0]
	t.live = t.live[:0]
	t.changes = t.changes[:0]
}
