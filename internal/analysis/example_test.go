package analysis_test

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/geom"
)

// A connected dominating set shows how many rebroadcasts a scheme can
// save: on a chain almost everyone must relay, in a clique only the
// source needs to transmit.
func ExampleAchievableSRB() {
	chain := []geom.Point{{X: 0}, {X: 450}, {X: 900}, {X: 1350}, {X: 1800}}
	clique := []geom.Point{{X: 0}, {X: 50}, {X: 100}, {X: 150}, {X: 200}}
	fmt.Printf("chain:  %.2f\n", analysis.AchievableSRB(chain, 500, 0))
	fmt.Printf("clique: %.2f\n", analysis.AchievableSRB(clique, 500, 0))
	// Output:
	// chain:  0.20
	// clique: 0.80
}
