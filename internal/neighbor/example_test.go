package neighbor_test

import (
	"fmt"

	"repro/internal/neighbor"
)

// The dynamic hello interval shortens as the neighborhood churns: a
// static neighborhood beacons every himax, a fully churning one every
// himin.
func ExampleDHIInterval() {
	// nvmax 0.02, himin 1s, himax 10s
	for _, nv := range []float64{0, 0.005, 0.01, 0.02, 0.1} {
		fmt.Printf("nv=%.3f -> %v\n", nv, neighbor.DHIInterval(nv))
	}
	// Output:
	// nv=0.000 -> 10s
	// nv=0.005 -> 7.5s
	// nv=0.010 -> 5s
	// nv=0.020 -> 1s
	// nv=0.100 -> 1s
}
