package mobility

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/sim"
)

// RoamerState is a Roamer's checkpointed dynamic state: the current and
// previous movement segments (the previous segment is what keeps
// parallel-drain position queries oracle-exact), the RNG stream, and the
// (at, seq) key of the armed turn event. Construction state — map, turn
// config, scheduler, shard routing — is not here; a restored Roamer is
// first rebuilt by the same construction path and then overwritten.
type RoamerState struct {
	SegStart sim.Time
	Origin   geom.Point
	VX, VY   float64

	PrevStart      sim.Time
	PrevOrigin     geom.Point
	PrevVX, PrevVY float64
	TurnAt         sim.Time
	HasPrev        bool

	Stopped bool
	RNG     [4]uint64

	// Armed turn event, absent for stopped (static) roamers.
	HasTurn      bool
	TurnEventAt  sim.Time
	TurnEventSeq uint64
}

// Snapshot captures the roamer's dynamic state at a barrier. The turn
// event handle is valid whenever the roamer is running: firing a turn
// re-arms the next one within the same event.
func (r *Roamer) Snapshot() RoamerState {
	st := RoamerState{
		SegStart:   r.segStart,
		Origin:     r.origin,
		VX:         r.vx,
		VY:         r.vy,
		PrevStart:  r.prevStart,
		PrevOrigin: r.prevOrigin,
		PrevVX:     r.prevVx,
		PrevVY:     r.prevVy,
		TurnAt:     r.turnAt,
		HasPrev:    r.hasPrev,
		Stopped:    r.stopped,
	}
	if r.rng != nil {
		st.RNG = r.rng.State()
	}
	if !r.stopped && r.turnEvent != nil {
		st.HasTurn = true
		st.TurnEventAt = r.turnEvent.At()
		st.TurnEventSeq = r.turnEvent.Seq()
	}
	return st
}

// Restore overwrites a freshly constructed roamer's dynamic state with a
// checkpointed one and re-arms its turn event at the exact checkpointed
// (at, seq) key. The roamer must already be attached to the scheduler
// the events are being restored into (the construction path guarantees
// the same shard routing as the original).
func (r *Roamer) Restore(st RoamerState) error {
	if r.turnEvent != nil {
		r.w.sched.Cancel(r.turnEvent)
		r.turnEvent = nil
	}
	r.segStart = st.SegStart
	r.origin = st.Origin
	r.vx, r.vy = st.VX, st.VY
	r.prevStart = st.PrevStart
	r.prevOrigin = st.PrevOrigin
	r.prevVx, r.prevVy = st.PrevVX, st.PrevVY
	r.turnAt = st.TurnAt
	r.hasPrev = st.HasPrev
	r.stopped = st.Stopped
	if r.rng != nil {
		r.rng.SetState(st.RNG)
	}
	if st.HasTurn {
		if r.stopped {
			return fmt.Errorf("mobility: restore state arms a turn on a stopped roamer")
		}
		ev, err := r.w.sched.RestoreRunner(r.shard, st.TurnEventAt, st.TurnEventSeq, r)
		if err != nil {
			return fmt.Errorf("mobility: restore turn event: %w", err)
		}
		r.turnEvent = ev
	}
	return nil
}
