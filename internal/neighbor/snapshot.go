package neighbor

import (
	"fmt"
	"slices"

	"repro/internal/packet"
	"repro/internal/sim"
)

// EntryState is one live neighbor entry in a TableState, including its
// (at, seq) expiry key. The table's one expiry event is armed at the
// earliest of these keys or before it (it moves later lazily), and the
// restored table arms it at exactly the earliest.
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
	st.Entries = make([]EntryState, len(t.live))
	for i, e := range t.live {
		st.Entries[i] = EntryState{
			ID:        e.id,
			LastHeard: e.lastHeard,
			Interval:  e.interval,
			Deadline:  e.deadline,
			ExpirySeq: e.seq,
			TwoHop:    e.twoHop,
		}
	}
	st.Changes = t.changes
	return st
}

// Restore rebuilds a freshly constructed (empty) table from a
// checkpointed state, arming its expiry event at the earliest entry key
// on the central ladder — where OnHello schedules it.
func (t *Table) Restore(st TableState) error {
	if t.Count() != 0 {
		return fmt.Errorf("neighbor: restore into a non-empty table")
	}
	for _, es := range st.Entries {
		if es.ID == t.owner {
			return fmt.Errorf("neighbor: restore entry for the table owner %v", es.ID)
		}
		if int(es.ID) < 0 || int(es.ID) >= t.hosts {
			return fmt.Errorf("neighbor: restore entry id %v outside the population of %d hosts", es.ID, t.hosts)
		}
		i, dup := t.find(es.ID)
		if dup {
			return fmt.Errorf("neighbor: duplicate restore entry %v", es.ID)
		}
		e := t.insert(i, es.ID)
		e.lastHeard = es.LastHeard
		e.interval = es.Interval
		e.deadline = es.Deadline
		e.seq = es.ExpirySeq
		e.twoHop = slices.Clone(es.TwoHop)
	}
	if t.Count() > 0 {
		ev, err := t.sched.RestoreKeyed(t)
		if err != nil {
			return fmt.Errorf("neighbor: restore expiry: %w", err)
		}
		t.expiry = ev
	}
	t.changes = append(t.changes[:0], st.Changes...)
	return nil
}

// PendingEvents returns how many scheduler events the table currently
// has armed — its one expiry event, or none when it has no neighbors —
// for the checkpoint exhaustiveness cross-check.
func (t *Table) PendingEvents() int {
	if t.expiry != nil {
		return 1
	}
	return 0
}
