// Command figures regenerates the paper's evaluation figures.
//
// Usage:
//
//	figures -list
//	figures -fig constants                         # the closed forms 0.61 / 0.41 / 0.59
//	figures -fig fig1 [-trials 20000] [-seed 5]    # Monte-Carlo EAC(k); fig2 is cf(n,k)
//	figures -fig fig7 [-requests 200] [-replicas 3] [-hosts 100] [-csv]
//	figures -fig all                               # every paper figure
//	figures -fig ablations                         # every abl-* ablation
//	figures -fig abl-oracle [-ci -replicas 3]      # one ablation, RE ± 95% CI
//	figures -compare "flooding counter:C=3 ac"     # ad-hoc scheme sweep
//	figures -telemetry run.jsonl                   # channel-load report
//
// Each figure prints one or more tables with the same rows/series the
// paper plots. The -paper flag prints the result the paper reports next
// to each figure so shapes can be compared at a glance.
//
// -compare takes scheme registry specs separated by whitespace (specs
// themselves contain commas; run -schemes for the syntax) and sweeps
// them over every map size like the paper figures do. It replaces -fig,
// so the two are refused together, and needs at least one spec.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/scheme"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole tool behind an injectable surface (arguments and
// output streams), so tests drive it as a function. Exit codes follow
// the flag package's convention: 2 for usage errors, 1 for runtime
// failures.
func run(argv []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "", "figure or ablation id to regenerate (constants, fig1..fig13, abl-*; see -list), 'all' for every figure, or 'ablations' for every ablation")
		list     = fs.Bool("list", false, "list available figures")
		requests = fs.Int("requests", 0, "broadcasts per replica (default 40; paper used 10000)")
		replicas = fs.Int("replicas", 0, "independently seeded repetitions per point (default 2)")
		hosts    = fs.Int("hosts", 0, "hosts per simulation (default 100)")
		seed     = fs.Uint64("seed", 0, "base random seed (default 1)")
		workers  = fs.Int("workers", 0, "parallel simulations (default GOMAXPROCS)")
		trials   = fs.Int("trials", 0, "Monte-Carlo trials for fig1/fig2 (default 3000)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")
		out      = fs.String("out", "", "also write each table as CSV into this directory")
		ci       = fs.Bool("ci", false, "show 95% confidence half-widths on RE (needs -replicas >= 2; meaningful from 3)")
		paper    = fs.Bool("paper", true, "print the paper's reported result for comparison")
		compare  = fs.String("compare", "", "whitespace-separated scheme specs to sweep over all maps (run -schemes for syntax)")
		schemes  = fs.Bool("schemes", false, "print the scheme spec syntax and exit")
		telem    = fs.String("telemetry", "", "print a channel-load report for a stormsim -telemetry JSONL file instead of simulating")
		progress = fs.Bool("progress", false, "report matrix progress (replicas done, events/s, ETA) on stderr")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "figures:", err)
		return code
	}

	// Zero means "harness default" for each of these; a negative count is
	// nonsense the harness would only meet as a makeslice or Validate
	// panic deep inside a worker.
	for _, name := range []string{"requests", "replicas", "hosts", "workers", "trials"} {
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(int); v < 0 {
			return fail(2, fmt.Errorf("-%s must not be negative, got %d", name, v))
		}
	}
	// Replica r of point p runs on seed BaseSeed + SeedStride·p + r, so a
	// replica count reaching the stride would reuse the next point's seeds.
	if *replicas >= experiment.SeedStride {
		return fail(2, fmt.Errorf("-replicas must be below %d, got %d", experiment.SeedStride, *replicas))
	}

	// One replica has no spread, so every ± cell would print a zero
	// half-width: certainty claimed from a single sample.
	if *ci && *replicas == 1 {
		return fail(2, fmt.Errorf("-ci needs at least 2 replicas, got -replicas 1"))
	}

	if *schemes {
		fmt.Fprint(stdout, "scheme specs:\n", scheme.Usage())
		return 0
	}
	if *telem != "" {
		if err := loadReport(stdout, *telem, *csv); err != nil {
			return fail(1, err)
		}
		return 0
	}
	if *list {
		for _, s := range append(experiment.Registry(), experiment.Ablations()...) {
			fmt.Fprintf(stdout, "%-13s  %s\n", s.ID, s.Title)
		}
		return 0
	}
	if *fig == "" && *compare == "" {
		return fail(2, fmt.Errorf("-fig, -compare, or -list required (try -fig fig7)"))
	}
	if *fig != "" && *compare != "" {
		return fail(2, fmt.Errorf("-fig and -compare are exclusive"))
	}
	compareSpecs := strings.Fields(*compare)
	if *compare != "" && len(compareSpecs) == 0 {
		return fail(2, fmt.Errorf("-compare needs at least one scheme spec"))
	}

	opts := experiment.Options{
		Hosts:    *hosts,
		Requests: *requests,
		Replicas: *replicas,
		BaseSeed: *seed,
		Workers:  *workers,
		Trials:   *trials,
		CI:       *ci,
	}
	if *progress {
		opts.Progress = stderr
	}

	stopProf, err := obs.StartProfiles(*cpuprof, *memprof)
	if err != nil {
		return fail(1, err)
	}
	defer func() {
		if err := stopProf(); err != nil && code == 0 {
			code = fail(1, err)
		}
	}()

	var specs []experiment.Spec
	switch {
	case len(compareSpecs) > 0:
		var parsed []scheme.Scheme
		for _, spec := range compareSpecs {
			s, err := scheme.Parse(spec)
			if err != nil {
				return fail(2, err)
			}
			parsed = append(parsed, s)
		}
		specs = []experiment.Spec{experiment.CompareSpec(parsed)}
	case *fig == "all":
		specs = experiment.Registry()
	case *fig == "ablations":
		specs = experiment.Ablations()
	default:
		s, ok := experiment.LookupAny(*fig)
		if !ok {
			return fail(2, fmt.Errorf("unknown figure %q (use -list)", *fig))
		}
		specs = []experiment.Spec{s}
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fail(1, err)
		}
	}
	for _, s := range specs {
		start := time.Now()
		tables := s.Run(opts)
		fmt.Fprintf(stdout, "== %s: %s ==\n", s.ID, s.Title)
		if *paper {
			fmt.Fprintf(stdout, "paper: %s\n", s.Paper)
		}
		fmt.Fprintln(stdout)
		for i, t := range tables {
			if *csv {
				fmt.Fprint(stdout, t.CSV())
			} else {
				fmt.Fprint(stdout, t.Text())
			}
			fmt.Fprintln(stdout)
			if *out != "" {
				name := filepath.Join(*out, fmt.Sprintf("%s_%d.csv", s.ID, i+1))
				if err := os.WriteFile(name, []byte(t.CSV()), 0o644); err != nil {
					return fail(1, err)
				}
			}
		}
		fmt.Fprintf(stdout, "(%s regenerated in %v)\n\n", s.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// loadReport decodes a stormsim -telemetry export and prints its
// per-interval channel-load table; as text (not CSV) the table closes
// with the export's per-kind event totals, the "totals:" line stormsim
// -timeline prints for the same run.
func loadReport(stdout io.Writer, path string, asCSV bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dump, err := obs.Decode(f)
	if err != nil {
		return err
	}
	t, err := experiment.LoadReport(dump)
	if err != nil {
		return err
	}
	if asCSV {
		fmt.Fprint(stdout, t.CSV())
		return nil
	}
	fmt.Fprint(stdout, t.Text())
	counts := map[obs.Kind]int{}
	for _, e := range dump.Events {
		counts[e.Kind]++
	}
	fmt.Fprint(stdout, obs.Totals(counts))
	return nil
}
