package scheme

import (
	"fmt"
	"math"

	"repro/internal/nodeset"
)

// EAC2Fraction is EAC(2)/(pi r^2) ~= 0.187: the expected additional
// coverage after hearing the same packet twice. The paper uses it as the
// ceiling of the adaptive location threshold function A(n).
const EAC2Fraction = 0.187

// --- Threshold functions ---

// CounterFunc is a counter threshold function C(n) of the host's
// one-hop neighbor count n.
type CounterFunc func(n int) int

// CounterTable builds C(n) from an explicit value table for n = 1, 2, ...
// (the paper writes these as digit sequences like "2345 5444 3332");
// n beyond the table uses the last value, and n <= 0 uses the first.
// It panics on an empty table.
func CounterTable(values ...int) CounterFunc {
	if len(values) == 0 {
		panic("scheme: empty counter table")
	}
	return func(n int) int {
		if n < 1 {
			return values[0]
		}
		if n > len(values) {
			return values[len(values)-1]
		}
		return values[n-1]
	}
}

// DefaultCounterFunc returns the paper's tuned C(n) (the solid line of
// its Fig. 6): C(n) = n+1 up to n1 = 4, then a gradual decrease to the
// minimum threshold 2 at n2 = 12 and beyond.
func DefaultCounterFunc() CounterFunc { return defaultCounterFunc }

// The defaults are built once: a nil threshold function is resolved at
// every NewJudge — once per packet per host — and building the closure
// there would put it on the heap each time.
var (
	// n:                                1  2  3  4  5  6  7  8  9 10 11 12
	defaultCounterFunc  = CounterTable(2, 3, 4, 5, 5, 4, 4, 4, 3, 3, 2, 2)
	defaultLocationFunc = LinearLocationFunc(6, 12, EAC2Fraction)
)

// LinearCounterFunc builds the parametric C(n) family used in the
// paper's tuning experiments (Fig. 5): C(n) = n+1 for n <= n1, then a
// linear descent to 2 at n = n2, and 2 afterwards.
func LinearCounterFunc(n1, n2 int) CounterFunc {
	if n1 < 1 || n2 <= n1 {
		panic(fmt.Sprintf("scheme: invalid counter knee points (%d, %d)", n1, n2))
	}
	top := float64(n1 + 1)
	return func(n int) int {
		switch {
		case n < 1:
			return 2
		case n <= n1:
			return n + 1
		case n >= n2:
			return 2
		default:
			frac := float64(n-n1) / float64(n2-n1)
			return int(math.Round(top - (top-2)*frac))
		}
	}
}

// LocationFunc is an additional-coverage threshold function A(n).
type LocationFunc func(n int) float64

// LinearLocationFunc builds the paper's A(n) family (its Fig. 8): 0 for
// n <= n1 (forcing a rebroadcast), a linear rise to max at n = n2, and
// max afterwards. The paper fixes max = EAC2Fraction.
func LinearLocationFunc(n1, n2 int, max float64) LocationFunc {
	if n1 < 0 || n2 <= n1 {
		panic(fmt.Sprintf("scheme: invalid location knee points (%d, %d)", n1, n2))
	}
	return func(n int) float64 {
		switch {
		case n <= n1:
			return 0
		case n >= n2:
			return max
		default:
			return max * float64(n-n1) / float64(n2-n1)
		}
	}
}

// DefaultLocationFunc returns the paper's recommended A(n): knees at
// (n1, n2) = (6, 12) with ceiling EAC(2)/pi r^2.
func DefaultLocationFunc() LocationFunc { return defaultLocationFunc }

// --- Adaptive counter-based ---

// AdaptiveCounter is the paper's adaptive counter-based scheme: the
// counter threshold is C(n), evaluated against the host's neighbor count
// at the moment the packet is first heard.
type AdaptiveCounter struct {
	// C is the threshold function; nil uses DefaultCounterFunc.
	C CounterFunc
	// Label overrides the scheme name in tables (useful when sweeping
	// candidate functions); empty uses "AC".
	Label string
}

var _ Scheme = AdaptiveCounter{}

// Name implements Scheme.
func (s AdaptiveCounter) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "AC"
}

// NeedsHello implements Scheme.
func (AdaptiveCounter) NeedsHello() bool { return true }

// NeedsPosition implements Scheme.
func (AdaptiveCounter) NeedsPosition() bool { return false }

// NewJudge implements Scheme.
func (s AdaptiveCounter) NewJudge(host HostView, first Reception) Judge {
	fn := s.C
	if fn == nil {
		fn = defaultCounterFunc
	}
	return &counterJudge{c: 1, threshold: fn(host.NeighborCount())}
}

// --- Adaptive location-based ---

// AdaptiveLocation is the paper's adaptive location-based scheme: the
// additional-coverage threshold is A(n) of the host's neighbor count.
type AdaptiveLocation struct {
	// A is the threshold function; nil uses DefaultLocationFunc.
	A LocationFunc
	// Label overrides the scheme name in tables; empty uses "AL".
	Label string
}

var _ Scheme = AdaptiveLocation{}

// Name implements Scheme.
func (s AdaptiveLocation) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "AL"
}

// NeedsHello implements Scheme.
func (AdaptiveLocation) NeedsHello() bool { return true }

// NeedsPosition implements Scheme.
func (AdaptiveLocation) NeedsPosition() bool { return true }

// NewJudge implements Scheme.
func (s AdaptiveLocation) NewJudge(host HostView, first Reception) Judge {
	fn := s.A
	if fn == nil {
		fn = defaultLocationFunc
	}
	return newLocationJudge(host.Position(), host.Radius(), fn(host.NeighborCount()), first.SenderPos)
}

// --- Neighbor coverage ---

// NeighborCoverage is the paper's neighbor-coverage scheme: host x keeps
// the pending set T of neighbors not yet believed to have the packet,
// initialized to N_x - N_{x,h} - {h} on first reception from h and
// shrunk by every duplicate; when T empties the rebroadcast is
// cancelled. It requires two-hop HELLO knowledge but no positioning
// hardware.
type NeighborCoverage struct {
	// Label overrides the scheme name in tables; empty uses "NC".
	Label string
}

var _ Scheme = NeighborCoverage{}

// Name implements Scheme.
func (s NeighborCoverage) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "NC"
}

// NeedsHello implements Scheme.
func (NeighborCoverage) NeedsHello() bool { return true }

// NeedsPosition implements Scheme.
func (NeighborCoverage) NeedsPosition() bool { return false }

// NewJudge implements Scheme. The pending set T lives in a bitset
// borrowed from the host's pool, so the coverage subtraction is word
// operations instead of map churn.
func (NeighborCoverage) NewJudge(host HostView, first Reception) Judge {
	j := &coverageJudge{host: host, pending: host.AcquireNodeSet()}
	j.pending.CopyFrom(host.NeighborNodeSet())
	j.subtract(first)
	return j
}

// coverageJudge holds the pending set T in a nodeset.Set borrowed from
// the host and returned on Release.
type coverageJudge struct {
	host    HostView
	pending *nodeset.Set
}

var _ ReleasableJudge = (*coverageJudge)(nil)

// subtract removes the sender and everyone the host believes the sender
// covers from the pending set.
func (j *coverageJudge) subtract(r Reception) {
	j.pending.Remove(r.From)
	for _, n := range j.host.TwoHop(r.From) {
		j.pending.Remove(n)
	}
}

func (j *coverageJudge) Initial() Action {
	if j.pending.Count() == 0 {
		return Inhibit
	}
	return Proceed
}

func (j *coverageJudge) OnDuplicate(r Reception) Action {
	j.subtract(r)
	if j.pending.Count() == 0 {
		return Inhibit
	}
	return Proceed
}

// Release implements ReleasableJudge.
func (j *coverageJudge) Release() {
	if j.pending != nil {
		j.host.ReleaseNodeSet(j.pending)
		j.pending = nil
	}
}
