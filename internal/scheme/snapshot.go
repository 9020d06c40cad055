package scheme

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/packet"
)

// JudgeState is a Judge's checkpointed decision state. Only the fields
// of its kind are meaningful.
type JudgeState struct {
	Kind JudgeKind

	// Counter-based: copies heard so far and the (possibly adaptive)
	// cancellation threshold.
	C         int
	Threshold int

	// Distance-based: own position, distance threshold, nearest sender.
	Own        geom.Point
	DThreshold float64
	MinDist    float64

	// Location-based: own position, radio radius, coverage threshold,
	// and the advertised sender positions heard so far (in order).
	Radius     float64
	AThreshold float64
	Senders    []geom.Point

	// Probabilistic: the rebroadcast draw made on first reception.
	Rebroadcast bool

	// Neighbor coverage: the not-yet-covered neighbor set, ascending.
	Pending []packet.NodeID
}

// SnapshotJudge captures a judge's decision state. The state owns its
// slices: nothing in it points into j.
func SnapshotJudge(j *Judge) JudgeState {
	st := JudgeState{
		Kind: j.kind, C: j.c, Threshold: j.threshold,
		Own: j.own, DThreshold: j.dThreshold, MinDist: j.minDist,
		Radius: j.radius, AThreshold: j.aThreshold,
		Senders:     append([]geom.Point(nil), j.senders()...),
		Rebroadcast: j.rebroadcast,
	}
	if j.pending != nil {
		st.Pending = j.pending.AppendIDs(nil)
	}
	return st
}

// RestoreJudge rebuilds a judge from its checkpointed decision state at
// the given host. It refuses a kind no checkpoint holds and a position
// or threshold that is not finite. A coverage judge borrows its pending
// set from the host's pool, as NewJudge does; the caller has checked its
// ids against the population. A location judge rebuilds its coverage
// state from its senders at its next estimate.
func RestoreJudge(st JudgeState, host HostView) (Judge, error) {
	if st.Kind >= judgeMember {
		return Judge{}, fmt.Errorf("scheme: restore of unknown judge kind %d", st.Kind)
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, v := range [...]float64{st.Own.X, st.Own.Y, st.DThreshold, st.MinDist, st.Radius, st.AThreshold} {
		if !finite(v) {
			return Judge{}, fmt.Errorf("scheme: restore of a judge with non-finite state %v", v)
		}
	}
	j := Judge{
		kind: st.Kind, c: st.C, threshold: st.Threshold,
		own: st.Own, dThreshold: st.DThreshold, minDist: st.MinDist,
		radius: st.Radius, aThreshold: st.AThreshold,
		rebroadcast: st.Rebroadcast, host: host,
	}
	for _, p := range st.Senders {
		if !finite(p.X) || !finite(p.Y) {
			return Judge{}, fmt.Errorf("scheme: restore of a judge with non-finite sender %v", p)
		}
		j.addSender(p)
	}
	if st.Kind == JudgeCoverage {
		j.pending = host.AcquireNodeSet()
		j.pending.Clear()
		for _, id := range st.Pending {
			j.pending.Add(id)
		}
	}
	return j, nil
}
