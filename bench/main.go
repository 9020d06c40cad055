// Command bench is the repository's one benchmark: five named workloads,
// five end-to-end metrics on each, and a traced run that attributes the
// time to the simulator's layers. README.md in this directory documents
// every metric and workload; BENCHMARK.json at the repository root is
// the machine-readable contract.
//
//	go run -C bench .                                  # every workload, end to end
//	go run -C bench . -workload fig13-sweep -trace 1   # per-layer table for one
//	go run -C bench . -selfcheck                       # two sets, compared against the bounds
//
// The parent process only orchestrates: every measurement runs in a
// child process of the same binary, one at a time, so each repeat starts
// with a fresh heap and a clean peak-RSS counter.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is the metric set every workload reports with -trace 0. A
// timing is the best of the run's repeats: the fastest wall and set-up
// time, the highest rate. Interference on a shared box only ever slows a
// repeat down, so the best repeat is the steadiest estimate of what the
// code costs: on the reference box it halves the run-to-run spread of
// the median (README.md, "Noise"). The median is printed beside it.
// peak_rss_mb is the repeats' mean: the collector's pacing makes a
// repeat's high-water mark land on one of two levels, and a mean moves
// smoothly where a median or an extreme flips between them.
//
// The bounds are what the reference box can resolve, not what one would
// wish for: host time on it drifts by 4 to 25 % between identical runs
// minutes apart, and a bound tighter than that would reject unchanged
// code.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "events/s", "higher", 0.25},
	{"broadcasts_per_s", "broadcasts/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// value is the one number a metric's repeats are reported as.
func (m metricDef) value(s sample) float64 {
	switch {
	case len(s) == 0:
		return math.NaN()
	case m.name == "peak_rss_mb":
		return s.mean()
	case m.better == "higher":
		return slices.Max(s)
	default:
		return slices.Min(s)
	}
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	repeats   int
	scale     string
	out       string
	selfcheck bool
	child     string
	spawned   int64
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all five)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; every input is a function of it and the frozen constants")
	flag.Float64Var(&o.seconds, "seconds", 15, "keep starting timed repeats until this many seconds are used")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.IntVar(&o.repeats, "repeats", 3, "minimum timed repeats per workload")
	flag.StringVar(&o.scale, "scale", "full", "full, or tiny (test-only divisor on requests and hosts)")
	flag.StringVar(&o.out, "out", "out", "directory for span files, relative to the bench directory")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two full sets and compare them against the bounds")
	flag.StringVar(&o.child, "child", "", "internal: run one measurement in this process (run, verify, trace)")
	flag.Int64Var(&o.spawned, "spawned", 0, "internal: the parent's clock when it started this child")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if _, ok := scales[o.scale]; !ok {
		fatalf("unknown -scale %q", o.scale)
	}
	if o.child != "" {
		os.Exit(childMain(o, os.Stdout))
	}
	specs := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fatalf("unknown -workload %q", o.workload)
		}
		specs = []workloadSpec{w}
	}
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	r := runner{o: o, self: self, log: os.Stdout}
	if o.selfcheck {
		os.Exit(r.selfcheck(specs))
	}
	r.header()
	code := 0
	for _, w := range specs {
		res, err := r.measure(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		res.print(os.Stdout)
	}
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runner starts the children of one invocation.
type runner struct {
	o    options
	self string
	log  io.Writer
}

// header prints what the numbers were taken on.
func (r *runner) header() {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "unknown" { // go run does not stamp the binary
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	fmt.Fprintf(r.log, "# bench: NumCPU=%d child GOMAXPROCS=%d %s %s/%s commit=%s seed=%d min-repeats=%d seconds=%g scale=%s size-factor=%d\n",
		runtime.NumCPU(), benchProcs, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		commit, r.o.seed, r.o.repeats, r.o.seconds, r.o.scale, sizeFactor)
}

// spawn runs one child to completion and decodes the result it prints.
// Children run strictly one at a time.
func (r *runner) spawn(kind string, w workloadSpec) (*childResult, error) {
	cmd := exec.Command(r.self,
		"-child", kind, "-workload", w.name,
		"-seed", strconv.FormatUint(r.o.seed, 10),
		"-scale", r.o.scale, "-out", r.o.out,
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(benchProcs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", kind, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s child printed %q: %w", kind, out, err)
	}
	return &res, nil
}

// sample is the repeats of one metric.
type sample []float64

func (s sample) median() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := slices.Clone(s)
	slices.Sort(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func (s sample) mean() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// spread is the median, min, max and count printed beside a reported value.
func (s sample) spread() string {
	if len(s) == 0 {
		return "(no samples)"
	}
	return fmt.Sprintf("(median %.6g, min %.6g, max %.6g, n=%d)", s.median(), slices.Min(s), slices.Max(s), len(s))
}

// result is one workload's outcome as printed.
type result struct {
	workload  string
	trace     bool
	samples   map[string]sample  // end-to-end repeats by metric name
	layer     map[string]float64 // per-layer metrics of the traced run
	ops       int
	failed    int
	failures  []string
	info      map[string]any
	constants map[string]any
}

// measure runs one workload: the timed repeats, then the untimed
// verification, or with -trace 1 the traced run.
func (r *runner) measure(w workloadSpec) (*result, error) {
	res := &result{workload: w.name, samples: map[string]sample{}, info: map[string]any{}}
	repeats, budget := r.o.repeats, r.o.seconds
	if r.o.trace == 1 {
		// The traced run needs the untraced median only as the base of
		// trace.overhead_share.
		repeats, budget = 2, 0
	}
	var digests []string
	start := time.Now()
	for i := 0; i < repeats || time.Since(start).Seconds() < budget; i++ {
		c, err := r.spawn("run", w)
		if err != nil {
			return nil, err
		}
		res.add(c)
		digests = append(digests, c.Digest)
		res.constants = c.Constants
	}
	kind := "verify"
	if r.o.trace == 1 {
		kind = "trace"
		res.trace = true
	}
	v, err := r.spawn(kind, w)
	if err != nil {
		return nil, err
	}
	res.ops += v.Ops
	res.failed += v.Failed
	res.failures = append(res.failures, v.Failures...)
	for _, d := range digests {
		if d != v.Digest {
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf("timed repeat digest %s differs from the %s run's %s", d, kind, v.Digest))
		}
	}
	res.info["digest"] = v.Digest
	res.info["mean_re"] = v.MeanRE
	res.info["mean_srb"] = v.MeanSRB
	res.info["verify_s"] = v.VerifyS
	if res.trace {
		res.layer = v.Layer
		base := res.samples["wall_s"].median()
		res.layer["trace.overhead_share"] = (v.WallS - base) / base
		res.info["untraced_wall_s"], res.info["traced_wall_s"] = base, v.WallS
	}
	return res, nil
}

func (res *result) add(c *childResult) {
	res.ops += c.Ops
	res.failed += c.Failed
	res.failures = append(res.failures, c.Failures...)
	put := func(name string, v float64) { res.samples[name] = append(res.samples[name], v) }
	put("wall_s", c.WallS)
	put("setup_s", c.SetupS)
	put("events_per_s", float64(c.Events)/c.WallS)
	put("broadcasts_per_s", float64(c.Broadcasts)/c.WallS)
	put("peak_rss_mb", c.PeakRSSMB)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable table and then, as the last line, the
// one JSON object the contract asks for.
func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "## %s  ops=%d ops_failed=%d\n", res.workload, res.ops, res.failed)
	for _, f := range res.failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, k := range sortedKeys(res.constants) {
		fmt.Fprintf(w, "   const %s = %v\n", k, res.constants[k])
	}
	for _, k := range sortedKeys(res.info) {
		fmt.Fprintf(w, "   info  %s = %v\n", k, res.info[k])
	}
	metrics := map[string]metricValue{}
	if res.trace {
		for _, k := range sortedKeys(res.layer) {
			fmt.Fprintf(w, "   %-34s %14.6g %s\n", k, res.layer[k], layerUnit(k))
		}
		for _, m := range perLayer {
			metrics[m.name] = metricValue{res.layer[m.name], m.unit} // 0 where it does not apply
		}
	} else {
		for _, m := range endToEnd {
			v := m.value(res.samples[m.name])
			fmt.Fprintf(w, "   %-18s %12.6g %-13s %s\n", m.name, v, m.unit, res.samples[m.name].spread())
			metrics[m.name] = metricValue{v, m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.ops,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// selfcheck runs two full sets back to back on the same inputs and
// prints, per workload and end-to-end metric, how far the second set's
// median is from the first's beside the metric's bound. It then runs one
// set on the held-out seed (seed+1), which must be as correct as the
// first. The exit code is non-zero if any metric disagrees by more than
// its bound or any op failed.
func (r *runner) selfcheck(specs []workloadSpec) int {
	r.header()
	code := 0
	set := func() map[string]*result {
		out := map[string]*result{}
		for _, w := range specs {
			res, err := r.measure(w)
			if err != nil {
				fmt.Fprintf(r.log, "%s: %v\n", w.name, err)
				code = 1
				continue
			}
			if res.failed > 0 {
				fmt.Fprintf(r.log, "%s: %d ops failed: %v\n", w.name, res.failed, res.failures)
				code = 1
			}
			out[w.name] = res
		}
		return out
	}
	a, b := set(), set()
	fmt.Fprintf(r.log, "%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for _, w := range specs {
		ra, rb := a[w.name], b[w.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range endToEnd {
			va, vb := m.value(ra.samples[m.name]), m.value(rb.samples[m.name])
			diff := math.Abs(vb-va) / va
			verdict := "ok"
			if !(diff <= m.bound) {
				verdict = "DISAGREE"
				code = 1
			}
			fmt.Fprintf(r.log, "%-14s %-18s %14.6g %14.6g %8.2f%% %6.0f%% %s\n",
				w.name, m.name, va, vb, 100*diff, 100*m.bound, verdict)
		}
	}
	r.o.seed++
	fmt.Fprintf(r.log, "held-out seed %d:\n", r.o.seed)
	held := set()
	for _, w := range specs {
		if res := held[w.name]; res != nil {
			fmt.Fprintf(r.log, "%-14s ops=%d ops_failed=%d digest=%v\n", w.name, res.ops, res.failed, res.info["digest"])
		}
	}
	return code
}
