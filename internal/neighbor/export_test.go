package neighbor

import (
	"repro/internal/packet"
	"repro/internal/sim"
)

// newTable returns an empty table for owner in a population of 64 hosts
// with the paper's expiry rule.
func newTable(owner packet.NodeID, sched *sim.Scheduler) *Table {
	return NewDenseTable(owner, sched, 0, 64)
}

// Contains reports whether h is currently a known one-hop neighbor.
func (t *Table) Contains(h packet.NodeID) bool {
	return t.present != nil && t.present.Contains(h)
}

// Clear drops all entries and pending expiries. The backing storage —
// dense slots and the change log — is retained for reuse rather than
// reallocated.
func (t *Table) Clear() {
	if t.present != nil {
		t.present.ForEach(func(h packet.NodeID) {
			e := &t.dense[h]
			if e.expiry != nil {
				t.sched.Cancel(e.expiry)
				e.expiry = nil
			}
			e.twoHop = e.twoHop[:0]
		})
		t.present.Clear()
		t.dirty = true
	}
	t.changes = t.changes[:0]
}
