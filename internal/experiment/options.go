// Package experiment contains the reproduction harness: it maps every
// figure of the paper's evaluation (Figs. 1, 2, 5, 7, 9, 10, 11, 12, 13)
// to a runnable specification, executes the required simulation sweeps on
// a bounded worker pool, and renders the results as aligned text tables
// and CSV.
//
// The paper runs 10,000 broadcasts per data point; the default Options
// use far fewer so the whole suite regenerates in minutes on a laptop.
// The trends (who wins, where the crossovers fall) are stable at these
// scales; raise Requests/Replicas to approach the paper's precision.
package experiment

import (
	"fmt"
	"io"
	"runtime"
)

// SeedStride is the seed-space distance between adjacent matrix points:
// replica r of point p runs with Seed = BaseSeed + SeedStride*p + r.
// Replicas must stay below the stride or point p's high replicas would
// reuse point p+1's low seeds, silently correlating what are supposed to
// be independent data points; WithDefaults enforces this.
const SeedStride = 1000

// Options scales the reproduction harness.
type Options struct {
	// Hosts per simulation (paper: 100).
	Hosts int
	// Requests is the number of broadcasts per replica (paper: 10,000).
	Requests int
	// Replicas is how many independently seeded repetitions are merged
	// per data point.
	Replicas int
	// BaseSeed seeds replica r of point p with BaseSeed + SeedStride*p
	// + r, giving every (point, replica) pair a distinct deterministic
	// seed as long as Replicas < SeedStride.
	BaseSeed uint64
	// Workers bounds simulation parallelism; 0 uses GOMAXPROCS.
	Workers int
	// Maps overrides the map sizes (units); nil uses the paper's
	// 1,3,5,7,9,11.
	Maps []int
	// Speeds overrides host max speeds (km/h) for the mobility figures
	// (11 and 12); nil uses the paper's 20,40,60,80.
	Speeds []float64
	// HelloIntervals overrides the fixed hello intervals for Fig. 11 in
	// milliseconds; nil uses the paper's 1000, 5000, 10000, 20000, 30000.
	HelloIntervalsMS []int
	// Trials is the Monte-Carlo sample count for the analysis figures
	// (1 and 2).
	Trials int
	// CI renders 95% confidence half-widths next to every simulated RE
	// cell (meaningful with Replicas >= 3).
	CI bool
	// Progress, when non-nil, receives one matrix progress line after
	// each completed replica: completed/total counts, aggregate
	// simulation event rate, and an ETA for the remaining replicas.
	Progress io.Writer
}

// WithDefaults fills in the harness defaults. It panics if Replicas
// reaches SeedStride: the seed layout would then assign the same seed to
// two different matrix points, merging runs that must be independent,
// and experiment specs are code, so a spec that asks for that is a
// programming error.
func (o Options) WithDefaults() Options {
	if o.Replicas >= SeedStride {
		panic(fmt.Sprintf(
			"experiment: Replicas = %d but the seed layout BaseSeed + %d*point + replica supports at most %d replicas per point without cross-point seed collisions",
			o.Replicas, SeedStride, SeedStride-1))
	}
	if o.Hosts == 0 {
		o.Hosts = 100
	}
	if o.Requests == 0 {
		o.Requests = 40
	}
	if o.Replicas == 0 {
		o.Replicas = 2
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if len(o.Maps) == 0 {
		o.Maps = []int{1, 3, 5, 7, 9, 11}
	}
	if len(o.Speeds) == 0 {
		o.Speeds = []float64{20, 40, 60, 80}
	}
	if len(o.HelloIntervalsMS) == 0 {
		o.HelloIntervalsMS = []int{1000, 5000, 10000, 20000, 30000}
	}
	if o.Trials == 0 {
		o.Trials = 3000
	}
	return o
}
