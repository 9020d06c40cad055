package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// oracleEngine is the ParseEngine name every other engine is checked
// against.
const oracleEngine = "sequential-oracle"

// childResult is what one child process prints: a single JSON object.
type childResult struct {
	Ops        int                `json:"ops"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	WallS      float64            `json:"wall_s"`
	SetupS     float64            `json:"setup_s"`
	Events     uint64             `json:"events"`
	Broadcasts int                `json:"broadcasts"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	Digest     string             `json:"digest"`
	MeanRE     float64            `json:"mean_re"`
	MeanSRB    float64            `json:"mean_srb"`
	VerifyS    float64            `json:"verify_s,omitempty"`
	Layer      map[string]float64 `json:"layer,omitempty"`
	Constants  map[string]any     `json:"constants,omitempty"`
}

func (r *childResult) fail(ops int, format string, args ...any) {
	r.Failed += ops
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// childMain runs one measurement in this process and prints its result.
// A failing op is counted, never fatal: the exit code is non-zero only
// when the result cannot be produced at all.
func childMain(o options, stdout io.Writer) int {
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q\n", o.workload)
		return 2
	}
	var res childResult
	switch o.child {
	case "run":
		timedRun(o, w, &res)
	case "verify":
		verifyRun(o, w, &res)
	case "trace":
		if err := tracedRun(o, w, &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown -child %q\n", o.child)
		return 2
	}
	res.PeakRSSMB = peakRSSMB()
	if err := json.NewEncoder(stdout).Encode(&res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// newJob builds the workload's job on the engine its end-to-end runs
// use.
func newJob(o options, w workloadSpec) *job {
	j := w.build(o.seed, scales[o.scale])
	if w.engine != "" {
		j.setEngine(w.engine, benchProcs)
	}
	return j
}

// execute runs a job to completion, checks every summary it returns and
// adds the outcome to res. It returns the summaries with one digest
// each, or nil if the job failed as a whole.
func execute(j *job, root *span, res *childResult) ([]metrics.Summary, []string) {
	sums, err := runJob(j, root)
	res.Ops += j.ops
	if err != nil {
		res.fail(j.ops, "%v", err)
		return nil, nil
	}
	digests := make([]string, len(sums))
	for i, s := range sums {
		digests[i] = summaryDigest(s)
		if s.Broadcasts != j.requests {
			res.fail(1, "summary %d holds %d broadcasts, %d requested", i, s.Broadcasts, j.requests)
		} else if !(s.MeanRE >= 0 && s.MeanRE <= 1 && s.MeanSRB >= 0 && s.MeanSRB <= 1) {
			res.fail(1, "summary %d has RE %v, SRB %v outside [0, 1]", i, s.MeanRE, s.MeanSRB)
		}
	}
	return sums, digests
}

// runJob runs both phases of a job, turning a panic into an error.
func runJob(j *job, root *span) (sums []metrics.Summary, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if err := j.prepare(root); err != nil {
		return nil, err
	}
	return j.run(root)
}

// report fills the result's totals from the job that was measured.
func (r *childResult) report(j *job, sums []metrics.Summary, digests []string) {
	r.WallS = j.wall.Seconds()
	r.SetupS = j.setup.Seconds()
	r.Constants = j.constants
	r.Digest = combineDigests(digests)
	var re, srb float64
	for _, s := range sums {
		r.Events += s.Events
		r.Broadcasts += s.Broadcasts
		re += s.MeanRE
		srb += s.MeanSRB
	}
	if len(sums) > 0 {
		r.MeanRE, r.MeanSRB = re/float64(len(sums)), srb/float64(len(sums))
	}
}

// timedRun is one end-to-end repeat. Set-up runs from the moment the
// parent started this process, so process start, input generation and
// every manet.New the bench itself calls are in setup_s.
func timedRun(o options, w workloadSpec, res *childResult) {
	j := newJob(o, w)
	if o.spawned > 0 {
		j.setup += time.Since(time.Unix(0, o.spawned))
	}
	sums, digests := execute(j, nil, res)
	res.report(j, sums, digests)
}

// verifyRun is the untimed correctness pass: the same inputs twice in one
// process must give the same summaries; a non-oracle engine must match
// the sequential oracle; the checkpointed run must match the
// uninterrupted one.
func verifyRun(o options, w workloadSpec, res *childResult) {
	start := time.Now()
	first := newJob(o, w)
	sums, digests := execute(first, nil, res)
	res.report(first, sums, digests)

	again := newJob(o, w)
	_, second := execute(again, nil, res)
	res.compare(again.ops, digests, second, "the same inputs run twice in one process")

	if w.reference != nil {
		if ref, what := w.reference(o.seed, scales[o.scale]); ref != nil {
			_, want := execute(ref, nil, res)
			res.compare(ref.ops, digests, want, what)
		}
	}
	res.VerifyS = time.Since(start).Seconds()
}

// compare counts the ops whose digest differs between two runs of the
// same inputs. A run that failed as a whole was already counted.
func (r *childResult) compare(ops int, a, b []string, what string) {
	if a == nil || b == nil {
		return
	}
	if len(a) != len(b) {
		r.fail(ops, "%s: %d summaries against %d", what, len(a), len(b))
		return
	}
	for i := range a {
		if a[i] != b[i] {
			r.fail(1, "%s: summary %d digest %s differs from %s", what, i, b[i], a[i])
		}
	}
}

// summaryDigest is SHA-256 over the fields of metrics.Summary in
// declaration order, so a field a later change adds is covered without
// an edit here.
func summaryDigest(s metrics.Summary) string {
	var buf bytes.Buffer
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		var word uint64
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			word = uint64(f.Int())
		case reflect.Uint64:
			word = f.Uint()
		case reflect.Float64:
			word = math.Float64bits(f.Float())
		default:
			panic("bench: metrics.Summary field " + v.Type().Field(i).Name + " has a kind the digest does not cover")
		}
		_ = binary.Write(&buf, binary.BigEndian, word) // a bytes.Buffer write cannot fail
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// combineDigests folds per-summary digests into the workload's one.
func combineDigests(ds []string) string {
	if len(ds) == 1 {
		return ds[0]
	}
	sum := sha256.Sum256([]byte(strings.Join(ds, "\n")))
	return hex.EncodeToString(sum[:])
}

// peakRSSMB reads this process's high-water resident set from
// /proc/self/status; 0 where the kernel does not report it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
