package scheme

import (
	"repro/internal/geom"
	"repro/internal/nodeset"
)

// JudgeKind names a judge's decision rule. The adaptive schemes share
// the fixed schemes' rules: only their thresholds differ, and NewJudge
// resolves those.
type JudgeKind uint8

// Judge kinds. judgeMember, a cluster member's always-inhibit rule,
// never pends, so no checkpoint holds it.
const (
	JudgeFlooding JudgeKind = iota
	JudgeCounter
	JudgeDistance
	JudgeLocation
	JudgeProbabilistic
	JudgeCoverage
	judgeMember
)

// Judge is one packet's decision state at one host, for every scheme:
// its kind picks the rule, and only that rule's fields are set. It is a
// value, kept in the host's pending-decision record, so a first
// reception allocates none.
type Judge struct {
	kind         JudgeKind
	rebroadcast  bool // probabilistic: the draw made on first reception
	c, threshold int  // counter: copies heard and the threshold

	// Distance and location: own position, distance threshold and
	// nearest sender, radio radius and coverage threshold.
	own                 geom.Point
	dThreshold, minDist float64
	radius, aThreshold  float64

	// Location: the n sender positions heard, in order — the first four
	// in inline, all of them in spill from the fifth on. spill never
	// points into inline, so a copied Judge reads its own senders. cov
	// estimates the uncovered fraction from the second sender on, with
	// the first done senders folded in; it is derived from the senders,
	// so a checkpoint holds only those.
	n      int
	inline [4]geom.Point
	spill  []geom.Point
	cov    *geom.Coverage
	done   int

	pending *nodeset.Set // neighbor coverage: the set T
	host    HostView     // serves two-hop lists and the pools
}

// Initial returns the verdict upon the first reception (the paper's
// step S1): Proceed to schedule a rebroadcast, or Inhibit to drop
// immediately.
func (j *Judge) Initial() Action {
	var inhibit bool
	switch j.kind {
	case JudgeCounter:
		inhibit = j.c >= j.threshold
	case JudgeDistance:
		inhibit = j.minDist < j.dThreshold
	case JudgeLocation:
		inhibit = j.uncovered() < j.aThreshold
	case JudgeProbabilistic:
		inhibit = !j.rebroadcast
	case JudgeCoverage:
		inhibit = j.pending.Count() == 0
	case judgeMember:
		inhibit = true
	}
	if inhibit {
		return Inhibit
	}
	return Proceed
}

// OnDuplicate processes hearing the same packet again while the
// rebroadcast is pending (step S4): Proceed to resume waiting, or
// Inhibit to cancel (step S5).
func (j *Judge) OnDuplicate(r Reception) Action {
	switch j.kind {
	case JudgeCounter:
		j.c++
	case JudgeDistance:
		if d := j.own.Dist(r.SenderPos); d < j.minDist {
			j.minDist = d
		}
	case JudgeLocation:
		j.addSender(r.SenderPos)
	case JudgeProbabilistic:
		return Proceed // the draw was made once, on first reception
	case JudgeCoverage:
		j.subtract(r)
	}
	return j.Initial()
}

// ReleaseJudge returns j's pooled resources to its host. The host layer
// calls it exactly once when the packet's decision is closed
// (inhibited, transmitted, or dropped on the initial verdict); the
// judge must not be used afterwards.
func ReleaseJudge(j Judge) {
	if j.pending != nil {
		j.host.ReleaseNodeSet(j.pending)
	}
	if pool, ok := j.host.(CoverageSource); ok && j.cov != nil {
		pool.ReleaseCoverage(j.cov)
	}
}

// newLocationJudge returns a location judge at host that has heard the
// packet from first.
func newLocationJudge(host HostView, threshold float64, first geom.Point) Judge {
	return Judge{
		kind: JudgeLocation, host: host,
		own: host.Position(), radius: host.Radius(), aThreshold: threshold,
		n: 1, inline: [4]geom.Point{first},
	}
}

// senders returns the sender positions heard so far.
func (j *Judge) senders() []geom.Point {
	if j.spill != nil {
		return j.spill
	}
	return j.inline[:j.n]
}

// addSender appends a sender position.
func (j *Judge) addSender(p geom.Point) {
	switch {
	case j.spill != nil:
		j.spill = append(j.spill, p)
	case j.n < len(j.inline):
		j.inline[j.n] = p
	default:
		j.spill = append(append(make([]geom.Point, 0, 2*len(j.inline)), j.inline[:]...), p)
	}
	j.n++
}

// uncovered returns the uncovered fraction of the host's disk: the
// closed form for one sender, from the second on a grid estimate that
// folds in the senders heard since the last one.
func (j *Judge) uncovered() float64 {
	s := j.senders()
	if len(s) == 1 {
		return geom.AdditionalCoverageFraction(j.own.Dist(s[0]), j.radius)
	}
	if j.cov == nil {
		if pool, ok := j.host.(CoverageSource); ok {
			j.cov = pool.AcquireCoverage()
		} else {
			j.cov = new(geom.Coverage)
		}
		j.cov.Reset(j.own, j.radius, CoverageResolution)
	}
	j.cov.Add(s[j.done:]...)
	j.done = len(s)
	return j.cov.Fraction()
}

// subtract removes the sender and everyone the host believes the sender
// covers from the pending set.
func (j *Judge) subtract(r Reception) {
	j.pending.Remove(r.From)
	for _, n := range j.host.TwoHop(r.From) {
		j.pending.Remove(n)
	}
}
