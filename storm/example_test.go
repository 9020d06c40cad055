package storm_test

import (
	"fmt"

	"repro/storm"
)

// storm.Run is the one-call entry point: scheme, map size, broadcast
// count, seed.
func ExampleRun() {
	s, err := storm.Run(storm.NeighborCoverage{}, 3, 15, 11)
	if err != nil {
		panic(err)
	}
	fmt.Println("broadcasts:", s.Broadcasts)
	fmt.Println("reached most hosts:", s.MeanRE > 0.9)
	// Output:
	// broadcasts: 15
	// reached most hosts: true
}
