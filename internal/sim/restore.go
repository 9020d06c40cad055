package sim

import "fmt"

// Checkpoint/restore support. A deterministic simulation can be frozen
// at a barrier — an instant between events, outside any parallel drain —
// and later reconstructed into a scheduler that continues the exact
// (time, seq) execution sequence of the original. The scheduler itself
// only persists its clock and counters; the pending events are
// owned by the model layers (each of which holds its timer handles), so
// checkpointing walks the layers, records each armed event's (at, seq)
// key, and restoring re-inserts them through RestoreRunner/RestoreKeyed
// with those exact keys while RestoreState re-arms the counters the next
// allocation will continue from.

// Seq returns the event's scheduling sequence number — the tiebreaker
// that orders same-instant events. Together with At it forms the key a
// checkpoint records so a restored scheduler can re-insert the event at
// its exact position in the merged order.
func (e *Event) Seq() uint64 { return e.seq }

// LaneState is the persistent portion of one parallel-drain lane in a
// SchedulerState. Between barrier windows a lane's executed/live
// counters are already folded into the shared scheduler counters
// (EndParallelDrain), so only the lane's namespaced sequence counter
// survives to the next window.
type LaneState struct {
	Seq uint64
}

// SchedulerState is the scheduler's own contribution to a checkpoint:
// clock and counters. Pending events are not here — they are serialized
// by the layers that own them and re-inserted via
// RestoreRunner/RestoreKeyed. Nor is the free-list: it is a cache, and a
// restored scheduler fills it on a miss as a fresh one does.
type SchedulerState struct {
	Now      Time
	Seq      uint64
	Executed uint64
	Lanes    []LaneState
}

// SnapshotState captures the scheduler's counters at a barrier. It must
// not be called during a parallel drain (lane accounting is only
// coherent after EndParallelDrain folds it).
func (s *Scheduler) SnapshotState() SchedulerState {
	s.assertSequential("SnapshotState")
	st := SchedulerState{Now: s.now, Seq: s.seq, Executed: s.executed}
	for i := range s.lanes {
		st.Lanes = append(st.Lanes, LaneState{Seq: s.lanes[i].seq})
	}
	return st
}

// RestoreState re-arms a freshly drained scheduler with a checkpointed
// state: the clock, the shared and per-lane sequence counters and the
// executed count. The scheduler must hold no pending events (Drain
// first); lanes in the state require the matching number of configured
// shard wheels.
func (s *Scheduler) RestoreState(st SchedulerState) error {
	switch {
	case s.parallel:
		return fmt.Errorf("sim: restore during a parallel drain")
	case s.live != 0:
		return fmt.Errorf("sim: restore into a scheduler with %d pending events", s.live)
	case len(st.Lanes) > 0 && len(st.Lanes) != len(s.wheels):
		return fmt.Errorf("sim: restore state has %d lanes, scheduler has %d shard wheels",
			len(st.Lanes), len(s.wheels))
	case st.Seq >= laneSeqBase(0):
		return fmt.Errorf("sim: restore state sequence counter %d outside the shared namespace", st.Seq)
	}
	for i, ln := range st.Lanes {
		if ln.Seq < laneSeqBase(i) || ln.Seq >= laneSeqBase(i+1) {
			return fmt.Errorf("sim: restore lane %d sequence counter %d outside its namespace", i, ln.Seq)
		}
	}
	s.now = st.Now
	s.seq = st.Seq
	s.executed = st.Executed
	// A drained wheel parks its consumption cursor past its buckets;
	// rewind so restored inserts land in the covering bucket again.
	for i := range s.wheels {
		w := &s.wheels[i]
		w.cur, w.head, w.sorted = 0, 0, false
	}
	if len(st.Lanes) > 0 && s.lanes == nil {
		s.lanes = make([]laneState, len(s.wheels))
	}
	for i, ln := range st.Lanes {
		s.lanes[i].seq = ln.Seq
	}
	return nil
}

// restoreEvent inserts an event with an explicit checkpointed (at, seq)
// key, bypassing the sequence counter.
func (s *Scheduler) restoreEvent(shard int, at Time, seq uint64) (*Event, error) {
	switch {
	case s.parallel:
		return nil, fmt.Errorf("sim: restore during a parallel drain")
	case at < s.now:
		return nil, fmt.Errorf("sim: restore event at %v before now %v", at, s.now)
	case shard < -1 || shard >= len(s.wheels):
		return nil, fmt.Errorf("sim: restore event onto shard %d with %d wheels", shard, len(s.wheels))
	}
	if seq < laneSeqBase(0) {
		if seq > s.seq {
			return nil, fmt.Errorf("sim: restore event seq %d beyond shared counter %d", seq, s.seq)
		}
	} else if len(s.lanes) == 0 {
		return nil, fmt.Errorf("sim: restore event seq %d in a lane namespace without lanes", seq)
	}
	e := &Event{at: at, seq: seq}
	if shard < 0 {
		s.lq.insert(e)
	} else {
		s.wheels[shard].insert(e)
	}
	s.live++
	return e, nil
}

// RestoreRunner re-inserts a checkpointed Runner event with its exact
// (at, seq) key, onto the given shard's wheel (shard >= 0) or the
// central ladder (shard == -1).
func (s *Scheduler) RestoreRunner(shard int, at Time, seq uint64, r Runner) (*Event, error) {
	if r == nil {
		return nil, fmt.Errorf("sim: restore with nil runner")
	}
	e, err := s.restoreEvent(shard, at, seq)
	if err != nil {
		return nil, err
	}
	e.runner = r
	return e, nil
}

// RestoreKeyed re-inserts a checkpointed Keyed event on the central
// ladder at the key r reports, which must be the owner's exact
// checkpointed earliest key.
func (s *Scheduler) RestoreKeyed(r Keyed) (*Event, error) {
	if r == nil {
		return nil, fmt.Errorf("sim: restore with nil runner")
	}
	at, seq := r.EventKey()
	e, err := s.restoreEvent(-1, at, seq)
	if err != nil {
		return nil, err
	}
	e.runner = r
	e.keyed = true
	return e, nil
}
