package scheme

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/packet"
)

// JudgeKind discriminates the per-packet decision state machines in a
// checkpoint. The adaptive schemes reuse the fixed schemes' judges (only
// the threshold computation differs, and it is resolved at NewJudge
// time), so one kind covers both.
type JudgeKind uint8

// Judge kinds.
const (
	JudgeFlooding JudgeKind = iota
	JudgeCounter
	JudgeDistance
	JudgeLocation
	JudgeProbabilistic
	JudgeCoverage
)

// JudgeState is a Judge's checkpointed decision state. Only the fields
// of the discriminated kind are meaningful.
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

// SnapshotJudge captures a judge's decision state. It covers every judge
// the package's schemes build; an unknown judge implementation aborts
// the checkpoint.
func SnapshotJudge(j Judge) (JudgeState, error) {
	switch v := j.(type) {
	case floodingJudge:
		return JudgeState{Kind: JudgeFlooding}, nil
	case *counterJudge:
		return JudgeState{Kind: JudgeCounter, C: v.c, Threshold: v.threshold}, nil
	case *distanceJudge:
		return JudgeState{Kind: JudgeDistance, Own: v.own, DThreshold: v.threshold, MinDist: v.minDist}, nil
	case *locationJudge:
		return JudgeState{
			Kind:       JudgeLocation,
			Own:        v.own,
			Radius:     v.radius,
			AThreshold: v.threshold,
			Senders:    v.senders,
		}, nil
	case probabilisticJudge:
		return JudgeState{Kind: JudgeProbabilistic, Rebroadcast: v.rebroadcast}, nil
	case *coverageJudge:
		return JudgeState{Kind: JudgeCoverage, Pending: v.pending.AppendIDs(nil)}, nil
	default:
		return JudgeState{}, fmt.Errorf("scheme: checkpoint of unknown judge type %T", j)
	}
}

// RestoreJudge rebuilds a judge from its checkpointed decision state at
// the given host. A coverage judge borrows its pending set from the
// host's pool, as NewJudge does, so a restored run keeps the original's
// pool behavior.
func RestoreJudge(st JudgeState, host HostView) (Judge, error) {
	switch st.Kind {
	case JudgeFlooding:
		return floodingJudge{}, nil
	case JudgeCounter:
		return &counterJudge{c: st.C, threshold: st.Threshold}, nil
	case JudgeDistance:
		return &distanceJudge{own: st.Own, threshold: st.DThreshold, minDist: st.MinDist}, nil
	case JudgeLocation:
		return newLocationJudge(st.Own, st.Radius, st.AThreshold, st.Senders...), nil
	case JudgeProbabilistic:
		return probabilisticJudge{rebroadcast: st.Rebroadcast}, nil
	case JudgeCoverage:
		j := &coverageJudge{host: host, pending: host.AcquireNodeSet()}
		for _, id := range st.Pending {
			j.pending.Add(id)
		}
		return j, nil
	default:
		return nil, fmt.Errorf("scheme: restore of unknown judge kind %d", st.Kind)
	}
}
