// Command stormanalysis reproduces the paper's closed-form and
// Monte-Carlo storm analyses without running a network simulation:
//
//	stormanalysis -eac 10        EAC(k) for k=1..10      (paper Fig. 1)
//	stormanalysis -cf 10         cf(n,k) for n=1..10     (paper Fig. 2)
//	stormanalysis -constants     the analytic constants (0.61, 0.41, 0.59)
//	stormanalysis -scheme ac:n1=3,n2=10 -funcs 15
//	                             tabulate a spec's threshold function
//
// Schemes for -scheme are registry specs (run with -schemes for syntax).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole tool behind an injectable surface (arguments and
// output streams), so tests drive it as a function. Exit codes follow
// the flag package's convention: 2 for usage errors, 1 for runtime
// failures.
func run(argv []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("stormanalysis", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		eacMax      = fs.Int("eac", 0, "print EAC(k) for k=1..N")
		cfMax       = fs.Int("cf", 0, "print cf(n,k) distributions for n=1..N")
		constants   = fs.Bool("constants", false, "print the paper's analytic constants")
		trials      = fs.Int("trials", 20000, "Monte-Carlo trials")
		seed        = fs.Uint64("seed", 1, "random seed")
		schemeSpec  = fs.String("scheme", "", "scheme spec to analyze with -funcs (run -schemes for syntax)")
		funcsMax    = fs.Int("funcs", 0, "tabulate the -scheme spec's threshold/decision function for n=0..N")
		listSchemes = fs.Bool("schemes", false, "print the scheme spec syntax and exit")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "stormanalysis:", err)
		return code
	}

	// A table cannot have a negative length, and a Monte-Carlo estimate
	// needs a trial: analysis.EAC would clamp the count in silence and
	// the heading would still print the number asked for.
	for _, f := range []struct {
		name  string
		value int
	}{
		{"eac", *eacMax}, {"cf", *cfMax}, {"funcs", *funcsMax},
	} {
		if f.value < 0 {
			return fail(2, fmt.Errorf("-%s must not be negative, got %d", f.name, f.value))
		}
	}
	if *trials < 1 {
		return fail(2, fmt.Errorf("-trials must be at least 1, got %d", *trials))
	}

	if *listSchemes {
		fmt.Fprint(stdout, "scheme specs:\n", scheme.Usage())
		return 0
	}

	stopProf, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return fail(1, err)
	}
	defer func() {
		if err := stopProf(); err != nil && code == 0 {
			code = fail(1, err)
		}
	}()
	if *schemeSpec != "" {
		if *funcsMax == 0 {
			*funcsMax = 15
		}
		if err := printSchemeFuncs(stdout, *schemeSpec, *funcsMax); err != nil {
			return fail(2, err)
		}
		return 0
	}

	if !*constants && *eacMax == 0 && *cfMax == 0 {
		*constants = true
		*eacMax = 10
		*cfMax = 10
	}

	if *constants {
		const r = 500.0
		fmt.Fprintln(stdout, "analytic constants (radius-independent):")
		fmt.Fprintf(stdout, "  max additional coverage at d=r:      %.4f of pi*r^2 (paper: ~0.61)\n",
			geom.AdditionalCoverageFraction(r, r))
		fmt.Fprintf(stdout, "  mean additional coverage (1 sender): %.4f of pi*r^2 (paper: ~0.41)\n",
			geom.ExpectedAdditionalCoverageFraction(r))
		fmt.Fprintf(stdout, "  pairwise contention probability:     %.4f           (paper: ~0.59)\n",
			geom.ExpectedContentionProbability(r))
		fmt.Fprintln(stdout)
	}

	if *eacMax > 0 {
		rng := sim.NewRNG(*seed)
		fmt.Fprintf(stdout, "EAC(k)/(pi r^2), %d trials (paper Fig. 1):\n", *trials)
		for k, v := range analysis.EACSeries(*eacMax, *trials, 64, rng) {
			fmt.Fprintf(stdout, "  k=%-2d  %.4f\n", k+1, v)
		}
		fmt.Fprintln(stdout)
	}

	printCF(stdout, *cfMax, *trials, *seed)
	return 0
}

// printSchemeFuncs tabulates the decision threshold a parsed spec would
// apply at each neighbor count n — the paper's C(n) and A(n) curves
// (Figs. 5, 7) for the adaptive schemes, or the constant threshold for
// the fixed ones.
func printSchemeFuncs(stdout io.Writer, spec string, maxN int) error {
	s, err := scheme.Parse(spec)
	if err != nil {
		return err
	}
	switch v := s.(type) {
	case scheme.AdaptiveCounter:
		fn := v.C
		if fn == nil {
			fn = scheme.DefaultCounterFunc()
		}
		fmt.Fprintf(stdout, "%s counter threshold C(n):\n", v.Name())
		for n := 0; n <= maxN; n++ {
			fmt.Fprintf(stdout, "  n=%-3d  C=%d\n", n, fn(n))
		}
	case scheme.AdaptiveLocation:
		fn := v.A
		if fn == nil {
			fn = scheme.DefaultLocationFunc()
		}
		fmt.Fprintf(stdout, "%s coverage threshold A(n), fraction of pi*r^2:\n", v.Name())
		for n := 0; n <= maxN; n++ {
			fmt.Fprintf(stdout, "  n=%-3d  A=%.4f\n", n, fn(n))
		}
	case scheme.Counter:
		fmt.Fprintf(stdout, "%s: fixed counter threshold C=%d for all n\n", v.Name(), v.C)
	case scheme.Distance:
		fmt.Fprintf(stdout, "%s: fixed distance threshold D=%g m for all n\n", v.Name(), v.D)
	case scheme.Location:
		fmt.Fprintf(stdout, "%s: fixed coverage threshold A=%g for all n\n", v.Name(), v.A)
	case scheme.Probabilistic:
		fmt.Fprintf(stdout, "%s: rebroadcast probability P=%g for all n\n", v.Name(), v.P)
	default:
		fmt.Fprintf(stdout, "%s: no tunable threshold function (decision is structural)\n", s.Name())
	}
	return nil
}

func printCF(stdout io.Writer, cfMax, trials int, seed uint64) {
	if cfMax <= 0 {
		return
	}
	rng := sim.NewRNG(seed + 1)
	fmt.Fprintf(stdout, "cf(n,k), %d trials (paper Fig. 2):\n", trials)
	table := analysis.ContentionFreeTable(cfMax, trials, rng)
	fmt.Fprintf(stdout, "  %-3s", "n")
	for k := 0; k <= 4; k++ {
		fmt.Fprintf(stdout, "  k=%-6d", k)
	}
	fmt.Fprintln(stdout)
	for n := 1; n <= cfMax; n++ {
		fmt.Fprintf(stdout, "  %-3d", n)
		for k := 0; k <= 4 && k < len(table[n-1]); k++ {
			fmt.Fprintf(stdout, "  %.4f  ", table[n-1][k])
		}
		fmt.Fprintln(stdout)
	}
}
