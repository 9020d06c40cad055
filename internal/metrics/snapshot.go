package metrics

import "repro/internal/sim"

// Checkpoint accessors. A BroadcastRecord's lastActivity and a Stream's
// folded history are deliberately unexported — models mutate them only
// through NoteActivity/Fold — so checkpointing gets its own narrow
// window into them here.

// LastActivity returns the time of the latest rebroadcast completion or
// inhibit decision attributed to this broadcast, for checkpointing.
func (r *BroadcastRecord) LastActivity() sim.Time { return r.lastActivity }

// RestoreActivity overwrites the record's completion time with a
// checkpointed value.
func (r *BroadcastRecord) RestoreActivity(at sim.Time) { r.lastActivity = at }

// StreamState is a Stream's checkpointed history: the (RE, SRB, latency)
// triple of every record folded so far, in fold order.
type StreamState struct {
	RE  []float64
	SRB []float64
	Lat []sim.Duration
}

// Snapshot captures the stream's folded history. The returned slices
// alias the stream's storage; callers serialize them without mutating.
func (s *Stream) Snapshot() StreamState {
	return StreamState{RE: s.res, SRB: s.srbs, Lat: s.lats}
}

// Restore overwrites the stream with a checkpointed history. A stream
// restored this way produces a Summary byte-identical to the stream the
// state was captured from.
func (s *Stream) Restore(st StreamState) {
	s.res = append(s.res[:0], st.RE...)
	s.srbs = append(s.srbs[:0], st.SRB...)
	s.lats = append(s.lats[:0], st.Lat...)
}
