package scheme

import (
	"fmt"

	"repro/internal/geom"
)

// --- Flooding ---

// Flooding is the baseline: every host rebroadcasts every packet exactly
// once, regardless of what it hears.
type Flooding struct{}

var _ Scheme = Flooding{}

// Name implements Scheme.
func (Flooding) Name() string { return "flooding" }

// NeedsHello implements Scheme.
func (Flooding) NeedsHello() bool { return false }

// NeedsPosition implements Scheme.
func (Flooding) NeedsPosition() bool { return false }

// NewJudge implements Scheme.
func (Flooding) NewJudge(HostView, Reception) Judge { return floodingJudge{} }

type floodingJudge struct{}

func (floodingJudge) Initial() Action              { return Proceed }
func (floodingJudge) OnDuplicate(Reception) Action { return Proceed }

// --- Counter-based ---

// Counter is the fixed-threshold counter-based scheme: a host counts how
// many times it has heard the packet (the first reception counts as 1)
// and cancels its rebroadcast once the counter reaches C.
type Counter struct {
	C int
}

var _ Scheme = Counter{}

// Name implements Scheme.
func (s Counter) Name() string { return fmt.Sprintf("C=%d", s.C) }

// NeedsHello implements Scheme.
func (Counter) NeedsHello() bool { return false }

// NeedsPosition implements Scheme.
func (Counter) NeedsPosition() bool { return false }

// NewJudge implements Scheme.
func (s Counter) NewJudge(HostView, Reception) Judge {
	return &counterJudge{c: 1, threshold: s.C}
}

type counterJudge struct {
	c         int
	threshold int
}

func (j *counterJudge) Initial() Action {
	if j.c >= j.threshold {
		return Inhibit
	}
	return Proceed
}

func (j *counterJudge) OnDuplicate(Reception) Action {
	j.c++
	if j.c >= j.threshold {
		return Inhibit
	}
	return Proceed
}

// --- Distance-based ---

// Distance is the fixed-threshold distance-based scheme: a host cancels
// its rebroadcast when the nearest host it heard the packet from is
// closer than D meters, because a nearby sender means little additional
// coverage. Distances are derived from advertised sender positions, so
// the scheme shares the location schemes' GPS assumption in this
// implementation (the original paper derives distance from signal
// strength; the decision rule is identical).
type Distance struct {
	D float64
}

var _ Scheme = Distance{}

// Name implements Scheme.
func (s Distance) Name() string { return fmt.Sprintf("D=%.0f", s.D) }

// NeedsHello implements Scheme.
func (Distance) NeedsHello() bool { return false }

// NeedsPosition implements Scheme.
func (Distance) NeedsPosition() bool { return true }

// NewJudge implements Scheme.
func (s Distance) NewJudge(host HostView, first Reception) Judge {
	return &distanceJudge{
		own:       host.Position(),
		threshold: s.D,
		minDist:   host.Position().Dist(first.SenderPos),
	}
}

type distanceJudge struct {
	own       geom.Point
	threshold float64
	minDist   float64
}

func (j *distanceJudge) Initial() Action {
	if j.minDist < j.threshold {
		return Inhibit
	}
	return Proceed
}

func (j *distanceJudge) OnDuplicate(r Reception) Action {
	if d := j.own.Dist(r.SenderPos); d < j.minDist {
		j.minDist = d
	}
	if j.minDist < j.threshold {
		return Inhibit
	}
	return Proceed
}

// --- Location-based ---

// Location is the fixed-threshold location-based scheme: using the
// advertised positions of every host it heard the packet from, a host
// computes the additional coverage (as a fraction of pi*r^2) its own
// rebroadcast would contribute, and cancels when that falls below A.
type Location struct {
	A float64
}

var _ Scheme = Location{}

// Name implements Scheme.
func (s Location) Name() string { return fmt.Sprintf("A=%.4f", s.A) }

// NeedsHello implements Scheme.
func (Location) NeedsHello() bool { return false }

// NeedsPosition implements Scheme.
func (Location) NeedsPosition() bool { return true }

// NewJudge implements Scheme.
func (s Location) NewJudge(host HostView, first Reception) Judge {
	return newLocationJudge(host, host.Position(), host.Radius(), s.A, first.SenderPos)
}

// locationJudge decides on the uncovered fraction of the host's disk. From
// the second sender on it keeps that estimate in a geom.Coverage borrowed
// from the host (when the host pools them) and folds in only the senders
// heard since the last estimate. The state is derived from the senders,
// so a checkpoint holds only the senders and a restored judge rebuilds it.
type locationJudge struct {
	own       geom.Point
	radius    float64
	threshold float64
	senders   []geom.Point
	// first backs senders until a fifth one arrives, so that the judge is
	// one allocation for the four in five judgements that hear no more.
	first [4]geom.Point
	// pool serves cov; nil when the host pools no coverage state.
	pool CoverageSource
	cov  *geom.Coverage
	// done counts the senders already folded into cov.
	done int
}

var _ ReleasableJudge = (*locationJudge)(nil)

// newLocationJudge returns a judge at host that has heard the packet from
// the given senders, in order.
func newLocationJudge(host HostView, own geom.Point, radius, threshold float64, senders ...geom.Point) *locationJudge {
	j := &locationJudge{own: own, radius: radius, threshold: threshold}
	j.pool, _ = host.(CoverageSource)
	j.senders = append(j.first[:0], senders...)
	return j
}

// coverage returns the uncovered fraction of the host's disk given the
// senders heard so far. The single-sender case uses the closed form; the
// general case uses grid estimation.
func (j *locationJudge) coverage() float64 {
	if len(j.senders) == 1 {
		return geom.AdditionalCoverageFraction(j.own.Dist(j.senders[0]), j.radius)
	}
	if j.cov == nil {
		if j.pool != nil {
			j.cov = j.pool.AcquireCoverage()
		} else {
			j.cov = new(geom.Coverage)
		}
		j.cov.Reset(j.own, j.radius, CoverageResolution)
	}
	j.cov.Add(j.senders[j.done:]...)
	j.done = len(j.senders)
	return j.cov.Fraction()
}

func (j *locationJudge) Initial() Action {
	if j.coverage() < j.threshold {
		return Inhibit
	}
	return Proceed
}

func (j *locationJudge) OnDuplicate(r Reception) Action {
	j.senders = append(j.senders, r.SenderPos)
	if j.coverage() < j.threshold {
		return Inhibit
	}
	return Proceed
}

// Release implements ReleasableJudge.
func (j *locationJudge) Release() {
	if j.cov != nil && j.pool != nil {
		j.pool.ReleaseCoverage(j.cov)
	}
	j.cov = nil
}

// --- Probabilistic ---

// Probabilistic is the simplest randomized baseline from the MOBICOM '99
// paper: on first reception a host rebroadcasts with probability P and
// stays silent otherwise. P = 1 degenerates to flooding.
type Probabilistic struct {
	P float64
}

var _ Scheme = Probabilistic{}

// Name implements Scheme.
func (s Probabilistic) Name() string { return fmt.Sprintf("P=%.2f", s.P) }

// NeedsHello implements Scheme.
func (Probabilistic) NeedsHello() bool { return false }

// NeedsPosition implements Scheme.
func (Probabilistic) NeedsPosition() bool { return false }

// NewJudge implements Scheme.
func (s Probabilistic) NewJudge(_ HostView, first Reception) Judge {
	return probabilisticJudge{rebroadcast: first.U < s.P}
}

type probabilisticJudge struct {
	rebroadcast bool
}

func (j probabilisticJudge) Initial() Action {
	if j.rebroadcast {
		return Proceed
	}
	return Inhibit
}

func (probabilisticJudge) OnDuplicate(Reception) Action { return Proceed }
