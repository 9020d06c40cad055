package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary: the
// runner starts its children with -child as the first argument.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		return
	}
	os.Exit(m.Run())
}

// heldOutSeed is not the default seed, so the tests also show that every
// input is a function of -seed and nothing is tuned to seed 1.
const heldOutSeed = 2

func tinyRunner(t *testing.T, trace int) *runner {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &runner{
		o:    options{seed: heldOutSeed, trace: trace, repeats: 1, scale: "tiny", out: t.TempDir()},
		self: self,
		log:  io.Discard,
	}
}

// resultLine decodes the last line a result prints: the contract's object.
func resultLine(t *testing.T, res *result) (correct bool, attempted, failed int, metrics map[string]metricValue) {
	t.Helper()
	var buf bytes.Buffer
	res.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int                   `json:"attempted"`
		Failed    *int                   `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || line.Metrics == nil {
		t.Fatalf("last line %q lacks a key", lines[len(lines)-1])
	}
	return *line.Correct, *line.Attempted, *line.Failed, line.Metrics
}

func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := tinyRunner(t, 0).measure(w)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Fatalf("ops_failed = %d: %v", res.failed, res.failures)
			}
			correct, attempted, failed, metrics := resultLine(t, res)
			if !correct || attempted < 1 || failed != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", correct, attempted, failed)
			}
			if len(metrics) != len(endToEnd) {
				t.Errorf("result line holds %d metrics, want %d", len(metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				got, ok := metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s: missing or unit %q, want %q", m.name, got.Unit, m.unit)
				}
				if !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("%s = %v, want finite and positive", m.name, got.Value)
				}
			}
		})
	}
}

// alwaysPositive are per-layer rows every workload must fill with a
// positive number; the rest may not apply to a workload, or may honestly
// read 0 (allocations on a pooled path, collisions in a tiny world).
var alwaysPositive = []string{
	"experiment.self_s", "manet.construct_s", "manet.construct_allocs", "manet.run_s",
	"sim.events", "sim.events_per_broadcast", "phy.transmissions", "phy.deliveries_per_tx",
	"phy.delivered_share", "manet.broadcasts",
	"sim.hold_ns", "sim.cancel_ns", "geom.grid_rebuild_ns_per_host", "geom.grid_within_ns",
	"geom.uncovered_ns", "phy.transmit_ns", "phy.neighbors_ns", "mac.enqueue_to_done_ns",
	"neighbor.on_hello_ns", "neighbor.twohop_ns", "nodeset.union_intersect_ns",
	"scheme.judge_ns.counter", "scheme.judge_ns.ac", "scheme.judge_ns.location",
	"scheme.judge_ns.al", "scheme.judge_ns.nc", "metrics.fold_ns", "metrics.summary_ns",
	"snapshot.encode_ns_per_kb", "snapshot.decode_ns_per_kb", "pdes.walk_ns_per_host", "pdes.pool_do_ns",
}

func TestTracedRun(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := tinyRunner(t, 1)
			res, err := r.measure(w)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Fatalf("ops_failed = %d: %v", res.failed, res.failures)
			}
			_, _, _, metrics := resultLine(t, res)
			if len(metrics) != len(perLayer) {
				t.Errorf("result line holds %d metrics, want %d", len(metrics), len(perLayer))
			}
			var cpu float64
			for name, v := range res.layer {
				seen[name] = true
				if layerUnit(name) == "" {
					t.Errorf("%s is not a listed per-layer metric", name)
				}
				// Overhead is a difference of two noisy timings and may be negative.
				if math.IsNaN(v) || math.IsInf(v, 0) || (v < 0 && name != "trace.overhead_share") {
					t.Errorf("%s = %v, want finite and not negative", name, v)
				}
				if strings.HasSuffix(name, ".cpu_share") {
					cpu += v
				}
			}
			// A tiny run can end before the profiler's first sample.
			if cpu != 0 && math.Abs(cpu-1) > 0.01 {
				t.Errorf("cpu_share rows sum to %v, want 1", cpu)
			}
			for _, name := range alwaysPositive {
				if !(res.layer[name] > 0) {
					t.Errorf("%s = %v, want positive", name, res.layer[name])
				}
			}
			if _, err := os.Stat(r.o.out + "/trace-" + w.name + ".jsonl"); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
	if t.Failed() {
		return
	}
	for _, m := range perLayer {
		if !seen[m.name] {
			t.Errorf("%s is reported by no workload", m.name)
		}
	}
}

// TestManifestMatchesCode keeps BENCHMARK.json and the code's own lists
// of workloads and metrics the same.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var manifest struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q: %q", i, got, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	same := func(what string, listed []metric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in code", len(listed), what, len(defs))
		}
		for i, m := range defs {
			if want := (metric{m.name, m.unit, m.better, m.bound}); listed[i] != want {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, code has %+v", what, i, listed[i], want)
			}
		}
	}
	same("end-to-end", manifest.EndToEnd, endToEnd)
	same("per-layer", manifest.PerLayer, perLayer)
}

func TestFoldProfile(t *testing.T) {
	samples := []stackSample{
		// Library time is charged to the layer that called it.
		{frames: []string{"slices.insertionSortCmpFunc[go.shape.int]", "slices.SortFunc[go.shape.[]int]",
			"repro/internal/geom.(*Grid).Within", "repro/internal/phy.(*Channel).Transmit",
			"repro/internal/manet.(*Network).Run", "main.tracedOp"}, nanos: 40},
		{frames: []string{"math.Sqrt", "repro/internal/phy.(*Channel).Transmit", "repro/internal/manet.(*Network).Run"}, nanos: 20},
		// The bench's copy of the sweep loop stands in for experiment.
		{frames: []string{"runtime.chanrecv", "main.tracedMatrix.func1"}, nanos: 10},
		{frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, nanos: 20},
		{frames: []string{"runtime.futex", "runtime.mcall"}, nanos: 10},
	}
	got := foldProfile(samples)
	want := map[string]float64{"geom": 0.4, "phy": 0.2, "experiment": 0.1, "runtime.gc": 0.2, "runtime.other": 0.1}
	var sum float64
	for _, l := range cpuLayers {
		if math.Abs(got[l]-want[l]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, got[l], want[l])
		}
		sum += got[l]
	}
	if len(got) != len(cpuLayers) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("%d rows summing to %v, want %d summing to 1", len(got), sum, len(cpuLayers))
	}
}

// spin burns CPU where the profiler can see it.
//
//go:noinline
func spin(d time.Duration) (x float64) {
	for t := time.Now(); time.Since(t) < d; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

// TestParseProfile reads a profile runtime/pprof really wrote.
func TestParseProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	sink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spinning, total int64
	for _, s := range samples {
		total += s.nanos
		for _, fn := range s.frames {
			if fn == "repro/bench.spin" || fn == "main.spin" {
				spinning += s.nanos
				break
			}
		}
	}
	if total <= 0 || spinning*2 < total {
		t.Errorf("%d of %d sampled ns have spin on the stack, want most", spinning, total)
	}
	if _, err := parseProfile(prof.Bytes()[:prof.Len()/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []*span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2: the union counts once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to its parent
		{ID: 5, Parent: 2, Start: 15, End: 20},
	}
	got := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 25, 3: 30, 4: 30, 5: 5} {
		if got[id] != want {
			t.Errorf("span %d self time = %d, want %d", id, got[id], want)
		}
	}
}
