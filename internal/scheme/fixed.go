package scheme

import "fmt"

// --- Flooding ---

// Flooding is the baseline: every host rebroadcasts every packet exactly
// once, regardless of what it hears.
type Flooding struct{}

// Name implements Scheme.
func (Flooding) Name() string { return "flooding" }

// NeedsHello implements Scheme.
func (Flooding) NeedsHello() bool { return false }

// NeedsPosition implements Scheme.
func (Flooding) NeedsPosition() bool { return false }

// NewJudge implements Scheme.
func (Flooding) NewJudge(HostView, Reception) Judge { return Judge{kind: JudgeFlooding} }

// --- Counter-based ---

// Counter is the fixed-threshold counter-based scheme: a host counts how
// many times it has heard the packet (the first reception counts as 1)
// and cancels its rebroadcast once the counter reaches C.
type Counter struct {
	C int
}

// Name implements Scheme.
func (s Counter) Name() string { return fmt.Sprintf("C=%d", s.C) }

// NeedsHello implements Scheme.
func (Counter) NeedsHello() bool { return false }

// NeedsPosition implements Scheme.
func (Counter) NeedsPosition() bool { return false }

// NewJudge implements Scheme.
func (s Counter) NewJudge(HostView, Reception) Judge {
	return Judge{kind: JudgeCounter, c: 1, threshold: s.C}
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

// Name implements Scheme.
func (s Distance) Name() string { return fmt.Sprintf("D=%.0f", s.D) }

// NeedsHello implements Scheme.
func (Distance) NeedsHello() bool { return false }

// NeedsPosition implements Scheme.
func (Distance) NeedsPosition() bool { return true }

// NewJudge implements Scheme.
func (s Distance) NewJudge(host HostView, first Reception) Judge {
	own := host.Position()
	return Judge{kind: JudgeDistance, own: own, dThreshold: s.D, minDist: own.Dist(first.SenderPos)}
}

// --- Location-based ---

// Location is the fixed-threshold location-based scheme: using the
// advertised positions of every host it heard the packet from, a host
// computes the additional coverage (as a fraction of pi*r^2) its own
// rebroadcast would contribute, and cancels when that falls below A.
type Location struct {
	A float64
}

// Name implements Scheme.
func (s Location) Name() string { return fmt.Sprintf("A=%.4f", s.A) }

// NeedsHello implements Scheme.
func (Location) NeedsHello() bool { return false }

// NeedsPosition implements Scheme.
func (Location) NeedsPosition() bool { return true }

// NewJudge implements Scheme.
func (s Location) NewJudge(host HostView, first Reception) Judge {
	return newLocationJudge(host, s.A, first.SenderPos)
}

// --- Probabilistic ---

// Probabilistic is the simplest randomized baseline from the MOBICOM '99
// paper: on first reception a host rebroadcasts with probability P and
// stays silent otherwise. P = 1 degenerates to flooding.
type Probabilistic struct {
	P float64
}

// Name implements Scheme.
func (s Probabilistic) Name() string { return fmt.Sprintf("P=%.2f", s.P) }

// NeedsHello implements Scheme.
func (Probabilistic) NeedsHello() bool { return false }

// NeedsPosition implements Scheme.
func (Probabilistic) NeedsPosition() bool { return false }

// NewJudge implements Scheme.
func (s Probabilistic) NewJudge(_ HostView, first Reception) Judge {
	return Judge{kind: JudgeProbabilistic, rebroadcast: first.U < s.P}
}
