package scheme_test

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/nodeset"
	"repro/internal/packet"
	"repro/internal/scheme"
)

// exampleHost is a minimal HostView for the examples.
type exampleHost struct {
	neighbors []packet.NodeID
}

func (h exampleHost) ID() packet.NodeID          { return 0 }
func (h exampleHost) Position() geom.Point       { return geom.Point{} }
func (h exampleHost) Radius() float64            { return 500 }
func (h exampleHost) NeighborCount() int         { return len(h.neighbors) }
func (h exampleHost) Neighbors() []packet.NodeID { return h.neighbors }
func (h exampleHost) TwoHop(packet.NodeID) []packet.NodeID {
	return nil
}
func (h exampleHost) NeighborNodeSet() *nodeset.Set {
	s := nodeset.New(0)
	for _, n := range h.neighbors {
		s.Add(n)
	}
	return s
}
func (h exampleHost) AcquireNodeSet() *nodeset.Set { return nodeset.New(0) }
func (h exampleHost) ReleaseNodeSet(*nodeset.Set)  {}

// The counter-based scheme counts copies of a packet and cancels the
// rebroadcast at its threshold.
func ExampleCounter() {
	judge := scheme.Counter{C: 3}.NewJudge(exampleHost{}, scheme.Reception{From: 1})
	fmt.Println("first reception:", judge.Initial())
	fmt.Println("second copy:   ", judge.OnDuplicate(scheme.Reception{From: 2}))
	fmt.Println("third copy:    ", judge.OnDuplicate(scheme.Reception{From: 3}))
	// Output:
	// first reception: proceed
	// second copy:    proceed
	// third copy:     inhibit
}

// The adaptive counter scheme evaluates its threshold function C(n) on
// the host's neighbor count: sparse hosts are pushed to rebroadcast,
// dense hosts are suppressed quickly.
func ExampleDefaultCounterFunc() {
	cn := scheme.DefaultCounterFunc()
	for _, n := range []int{1, 4, 8, 12, 20} {
		fmt.Printf("C(%d) = %d\n", n, cn(n))
	}
	// Output:
	// C(1) = 2
	// C(4) = 5
	// C(8) = 4
	// C(12) = 2
	// C(20) = 2
}

// The adaptive location scheme's A(n) forces rebroadcasts below n1 = 6
// neighbors and caps at EAC(2)/(pi r^2) = 0.187 beyond n2 = 12.
func ExampleDefaultLocationFunc() {
	an := scheme.DefaultLocationFunc()
	fmt.Printf("A(3) = %.3f\n", an(3))
	fmt.Printf("A(9) = %.4f\n", an(9))
	fmt.Printf("A(15) = %.3f\n", an(15))
	// Output:
	// A(3) = 0.000
	// A(9) = 0.0935
	// A(15) = 0.187
}

// The neighbor-coverage scheme cancels as soon as every known neighbor
// is believed to have the packet.
func ExampleNeighborCoverage() {
	h := exampleHost{neighbors: []packet.NodeID{1, 2}}
	// First copy arrives from host 1: host 2 is still uncovered.
	judge := scheme.NeighborCoverage{}.NewJudge(h, scheme.Reception{From: 1})
	fmt.Println("after hearing host 1:", judge.Initial())
	// Then host 2 itself rebroadcasts: nothing left to cover.
	fmt.Println("after hearing host 2:", judge.OnDuplicate(scheme.Reception{From: 2}))
	// Output:
	// after hearing host 1: proceed
	// after hearing host 2: inhibit
}
