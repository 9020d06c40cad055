// Package scheme implements the paper's rebroadcast decision schemes —
// the system's core contribution — as pure per-packet state machines,
// decoupled from the event-driven substrate so they can be tested and
// reasoned about in isolation.
//
// Fixed-threshold baselines (from Ni et al., MOBICOM '99, which the
// paper compares against):
//
//   - Flooding: every host rebroadcasts once.
//   - Counter-based: cancel after hearing the packet C times.
//   - Distance-based: cancel when some sender is closer than D meters.
//   - Location-based: cancel when the additional coverage the host's
//     rebroadcast would provide drops below A (fraction of pi*r^2).
//
// Adaptive schemes (this paper's contribution):
//
//   - Adaptive counter-based: C becomes C(n) of the neighbor count n.
//   - Adaptive location-based: A becomes A(n).
//   - Neighbor coverage: rebroadcast only while some one-hop neighbor is
//     not yet believed covered, using two-hop HELLO knowledge.
//
// A Scheme builds one Judge per received broadcast packet. The host layer
// asks the Judge for an initial verdict on first reception and feeds it
// every duplicate reception heard while the rebroadcast is still pending;
// the Judge answers whether to keep going or to cancel. Once the frame is
// on the air no further decisions apply (the paper's step S3).
package scheme

import (
	"repro/internal/geom"
	"repro/internal/nodeset"
	"repro/internal/packet"
)

// Action is a Judge's verdict after a reception.
type Action int

// Verdicts.
const (
	// Proceed means the host should (continue to) schedule its
	// rebroadcast.
	Proceed Action = iota
	// Inhibit means the rebroadcast must be cancelled; the host will
	// never rebroadcast this packet (the paper's step S5).
	Inhibit
)

// String names the action.
func (a Action) String() string {
	if a == Proceed {
		return "proceed"
	}
	return "inhibit"
}

// HostView is the local knowledge a Judge may consult. It is provided by
// the host layer; schemes must use nothing beyond it (the paper's schemes
// are strictly local).
type HostView interface {
	// ID returns the host's identity.
	ID() packet.NodeID
	// Position returns the host's own position (GPS assumption of the
	// location-based schemes).
	Position() geom.Point
	// Radius returns the radio transmission radius in meters.
	Radius() float64
	// NeighborCount returns |N_x| from the HELLO-built neighbor table.
	NeighborCount() int
	// Neighbors returns N_x.
	Neighbors() []packet.NodeID
	// TwoHop returns N_{x,h} (h's neighbor set as last announced to this
	// host), or nil if h is not a known neighbor. The slice is shared
	// storage and must not be modified.
	TwoHop(h packet.NodeID) []packet.NodeID
	NodeSetSource
}

// NodeSetSource is the part of HostView that serves neighbor subsets
// as bitsets over the population's dense 0..N-1 ids. Neighbor coverage
// keeps its pending set in a pooled bitset instead of allocating one per
// packet. Pools may live on the host side because a simulation is
// single-threaded; the Scheme value itself stays stateless and shareable
// across replica goroutines.
type NodeSetSource interface {
	// NeighborNodeSet returns the host's live one-hop membership bitset
	// (N_x); callers must not mutate it.
	NeighborNodeSet() *nodeset.Set
	// AcquireNodeSet returns an empty scratch set from the host's pool.
	AcquireNodeSet() *nodeset.Set
	// ReleaseNodeSet returns a scratch set to the pool.
	ReleaseNodeSet(*nodeset.Set)
}

// ReleasableJudge is implemented by judges that hold pooled resources.
// The host layer must call Release exactly once when the packet's
// decision is closed (inhibited, transmitted, or dropped on the initial
// verdict); the judge must not be used afterwards.
type ReleasableJudge interface {
	Judge
	Release()
}

// ReleaseJudge returns j's pooled resources if it holds any. It is the
// host layer's single call point and tolerates judges without resources.
func ReleaseJudge(j Judge) {
	if r, ok := j.(ReleasableJudge); ok {
		r.Release()
	}
}

// Reception describes hearing one copy of the broadcast packet.
type Reception struct {
	From packet.NodeID
	// SenderPos is the transmitter's advertised position. Only the
	// location-based schemes may use it.
	SenderPos geom.Point
	// U is a uniform random variate in [0, 1) drawn by the host layer
	// for this reception. Randomized schemes (the probabilistic baseline)
	// consume it; deterministic schemes ignore it. Keeping the draw in
	// the host layer preserves scheme purity and run reproducibility.
	U float64
}

// Judge is the per-packet decision state machine.
type Judge interface {
	// Initial returns the verdict upon the first reception (the paper's
	// step S1): Proceed to schedule a rebroadcast, or Inhibit to drop
	// immediately.
	Initial() Action
	// OnDuplicate processes hearing the same packet again while the
	// rebroadcast is pending (step S4): Proceed to resume waiting, or
	// Inhibit to cancel (step S5).
	OnDuplicate(r Reception) Action
}

// Scheme builds Judges. Implementations must be stateless across packets
// (all per-packet state lives in the Judge), so one Scheme value is
// shared by every host in a simulation.
type Scheme interface {
	// Name returns a short label used in experiment tables ("AC", "C=2").
	Name() string
	// NewJudge creates decision state for a packet first heard from
	// first, at the given host.
	NewJudge(host HostView, first Reception) Judge
	// NeedsHello reports whether the scheme requires the HELLO neighbor
	// discovery protocol to operate (the adaptive and neighbor-coverage
	// schemes do; the fixed-threshold baselines do not).
	NeedsHello() bool
	// NeedsPosition reports whether the scheme requires positioning
	// hardware (GPS), i.e. reads Reception.SenderPos or Position.
	NeedsPosition() bool
}

// CoverageResolution is the grid resolution used when the location-based
// schemes estimate multi-sender additional coverage. See
// geom.UncoveredFraction.
const CoverageResolution = 48
