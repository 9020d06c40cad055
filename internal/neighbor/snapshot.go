package neighbor

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// EntryState is one live neighbor entry in a TableState, including the
// (at, seq) key of its armed expiry timer. Every live entry has an armed
// timer: OnHello always re-arms on refresh and expire removes the entry
// when it fires, so a barrier never observes a live entry without one.
type EntryState struct {
	ID        packet.NodeID
	LastHeard sim.Time
	Interval  sim.Duration
	Deadline  sim.Time
	ExpirySeq uint64
	TwoHop    []packet.NodeID
}

// TableState is one host's checkpointed neighbor knowledge: the live
// entries in ascending id order (canonical for the snapshot codec) and
// the join/leave change log feeding the variation estimator.
type TableState struct {
	Entries []EntryState
	Changes []sim.Time
}

// Snapshot captures the table's live entries and change log at a
// barrier. Entries are emitted in ascending id order.
func (t *Table) Snapshot() TableState {
	var st TableState
	if t.Count() == 0 {
		// A table that has never heard a HELLO (or whose entries all
		// expired) snapshots allocation-free — the case the speculative
		// engine's per-segment micro-checkpoints hit on every host.
		st.Changes = t.changes
		return st
	}
	snap := func(e *entry) {
		st.Entries = append(st.Entries, EntryState{
			ID:        e.id,
			LastHeard: e.lastHeard,
			Interval:  e.interval,
			Deadline:  e.deadline,
			ExpirySeq: e.expiry.Seq(),
			TwoHop:    e.twoHop,
		})
	}
	t.present.ForEach(func(h packet.NodeID) { snap(&t.dense[h]) })
	st.Changes = t.changes
	return st
}

// Restore rebuilds a freshly constructed (empty) table from a
// checkpointed state, re-arming every entry's expiry timer at its exact
// (at, seq) key on the central ladder — where OnHello schedules them.
func (t *Table) Restore(st TableState) error {
	if t.Count() != 0 {
		return fmt.Errorf("neighbor: restore into a non-empty table")
	}
	for _, es := range st.Entries {
		if es.ID == t.owner {
			return fmt.Errorf("neighbor: restore entry for the table owner %v", es.ID)
		}
		if int(es.ID) < 0 || int(es.ID) >= t.hosts {
			return fmt.Errorf("neighbor: restore entry id %v outside dense population %d", es.ID, t.hosts)
		}
		t.ensureDense()
		if !t.present.Add(es.ID) {
			return fmt.Errorf("neighbor: duplicate restore entry %v", es.ID)
		}
		t.dirty = true
		e := &t.dense[es.ID]
		e.id = es.ID
		e.lastHeard = es.LastHeard
		e.interval = es.Interval
		e.deadline = es.Deadline
		e.twoHop = append(e.twoHop[:0], es.TwoHop...)
		if e.fire == nil {
			ee := e
			e.fire = func() { t.expire(ee.id, ee.deadline) }
		}
		ev, err := t.sched.RestoreFunc(-1, es.Deadline, es.ExpirySeq, e.fire)
		if err != nil {
			return fmt.Errorf("neighbor: restore expiry for %v: %w", es.ID, err)
		}
		e.expiry = ev
	}
	t.changes = append(t.changes[:0], st.Changes...)
	return nil
}

// PendingEvents returns how many scheduler events the table currently
// has armed (one expiry per live entry), for the checkpoint
// exhaustiveness cross-check.
func (t *Table) PendingEvents() int { return t.Count() }
