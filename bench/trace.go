package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/manet"
	"repro/internal/metrics"
)

// span is one timed call the bench makes into a layer. Spans are
// recorded from the bench's own files, around the calls; they stay in
// memory until the traced run ends. Every method is a no-op on a nil
// span, which is how an untraced run executes the same code.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // 0 for the root
	Name     string             `json:"name"`
	Workload string             `json:"workload"`
	Op       int                `json:"op"`
	Start    int64              `json:"start_ns"` // since the trace began
	End      int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`

	tr *tracer
}

// tracer collects the spans of one traced run.
type tracer struct {
	workload string
	t0       time.Time
	// allocs makes construction and run spans record the mallocs and
	// bytes allocated inside them. The deltas are process-wide, so they
	// are exact only when nothing else runs: not inside the sweep.
	allocs bool
	mu     sync.Mutex
	spans  []*span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// root opens the span every other span of the run descends from.
func (t *tracer) root(name string) *span {
	return t.open(0, name, -1)
}

func (t *tracer) open(parent int, name string, op int) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload, Op: op, tr: t}
	t.spans = append(t.spans, s)
	s.Start = int64(time.Since(t.t0))
	return s
}

// child opens a span caused by s.
func (s *span) child(name string, op int) *span {
	if s == nil {
		return nil
	}
	return s.tr.open(s.ID, name, op)
}

// count records a count measured at the span's boundary.
func (s *span) count(key string, v float64) *span {
	if s == nil {
		return nil
	}
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] = v
	return s
}

func (s *span) end() {
	if s != nil {
		s.End = int64(time.Since(s.tr.t0))
	}
}

func (s *span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds by span id: its
// duration minus the part of its interval that its child spans cover.
// Children of one parent may overlap (two sweep workers), so the covered
// part is the union of their intervals, clipped to the parent.
func selfTimes(spans []*span) map[int]int64 {
	kids := map[int][]*span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, at := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, at), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// named returns the spans called name, in start order.
func named(spans []*span, name string) []*span {
	var out []*span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func sumSeconds(spans []*span) float64 {
	var t float64
	for _, s := range spans {
		t += s.seconds()
	}
	return t
}

// tracedMatrix is the bench's own copy of experiment.RunMatrix's sweep
// loop — same seeds, same input-order dispatch over the same number of
// workers, same merge — with a span around every call into a layer. The
// verifier requires its merged summaries to equal RunMatrix's.
func tracedMatrix(root *span, cfgs []manet.Config, o experiment.Options) ([]metrics.Summary, error) {
	o = o.WithDefaults()
	type task struct {
		point, replica int
		cfg            manet.Config
	}
	var tasks []task
	for p, cfg := range cfgs {
		if cfg.Hosts == 0 {
			cfg.Hosts = o.Hosts
		}
		if cfg.Requests == 0 {
			cfg.Requests = o.Requests
		}
		for r := 0; r < o.Replicas; r++ {
			c := cfg
			c.Seed = o.BaseSeed + experiment.SeedStride*uint64(p) + uint64(r)
			tasks = append(tasks, task{p, r, c})
		}
	}
	results := make([][]metrics.Summary, len(cfgs))
	for p := range results {
		results[p] = make([]metrics.Summary, o.Replicas)
	}
	errs := make([]error, o.Workers)
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range ch {
				if errs[w] != nil {
					continue
				}
				tk := tasks[i]
				op := root.child("experiment.op", i).count("worker", float64(w))
				sum, err := tracedOp(op, i, tk.cfg)
				op.end()
				if err != nil {
					errs[w] = fmt.Errorf("point %d replica %d (seed %d): %w", tk.point, tk.replica, tk.cfg.Seed, err)
					continue
				}
				results[tk.point][tk.replica] = sum
			}
		}(w)
	}
	for i := range tasks {
		ch <- i
	}
	close(ch)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := make([]metrics.Summary, len(cfgs))
	for p := range cfgs {
		sp := root.child("metrics.Merge", p)
		merged[p] = metrics.Merge(results[p])
		sp.end()
	}
	return merged, nil
}

func tracedOp(op *span, i int, cfg manet.Config) (sum metrics.Summary, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	n, err := tracedNew(op, i, cfg)
	if err != nil {
		return sum, err
	}
	sp := op.child("manet.Run", i)
	sum = n.Run()
	sp.count("events", float64(sum.Events)).end()
	return sum, nil
}

// tracedNew is manet.New under a span that also records the scheduler's
// pending depth at construction, which sizes the sim layer drivers.
func tracedNew(parent *span, op int, cfg manet.Config) (*manet.Network, error) {
	sp := parent.child("manet.New", op)
	done := sp.allocs()
	n, err := manet.New(cfg)
	done()
	if err == nil && sp != nil {
		sp.count("pending", float64(n.Scheduler().Pending()))
	}
	sp.end()
	return n, err
}

// allocs starts counting the process's allocations into the span, if
// its tracer asks for that; the returned function stops.
func (s *span) allocs() (done func()) {
	if s == nil || !s.tr.allocs {
		return func() {}
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	return func() {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		s.count("mallocs", float64(ms1.Mallocs-ms0.Mallocs))
		s.count("bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc))
	}
}

// sumCount adds up one count over spans.
func sumCount(spans []*span, key string) float64 {
	var t float64
	for _, s := range spans {
		t += s.Counts[key]
	}
	return t
}

// spanMetrics derives the span rows of the per-layer table. A row whose
// spans the workload does not produce is left out.
func spanMetrics(spans []*span, workers int, out map[string]float64) {
	self := selfTimes(spans)
	root := spans[0]
	out["experiment.self_s"] = float64(self[root.ID]) / 1e9
	out["manet.construct_s"] = sumSeconds(named(spans, "manet.New"))
	out["manet.run_s"] = sumSeconds(named(spans, "manet.Run"))

	if ops := named(spans, "experiment.op"); len(ops) > 0 {
		// Worker-seconds idle at the sweep's tail, after a worker's last
		// op and before the slowest worker's.
		last := make([]int64, workers)
		ms := make(sample, len(ops))
		for i, op := range ops {
			w := int(op.Counts["worker"])
			last[w] = max(last[w], op.End)
			ms[i] = op.seconds() * 1e3
		}
		var idle int64
		for _, end := range last {
			idle += slices.Max(last) - end
		}
		out["experiment.worker_idle_share"] = float64(idle) / float64(int64(workers)*(root.End-root.Start))
		out["experiment.op_ms_p50"] = ms.median()
		out["experiment.op_ms_max"] = slices.Max(ms)
		out["metrics.merge_s"] = sumSeconds(named(spans, "metrics.Merge"))
	}

	if cks := named(spans, "manet.Checkpoint"); len(cks) > 0 {
		out["manet.checkpoint_count"] = float64(len(cks))
		out["manet.checkpoint_ms"] = sumSeconds(cks) * 1e3 / float64(len(cks))
		out["snapshot.doc_kb"] = sumCount(cks, "bytes") / float64(len(cks)) / 1024
		out["snapshot.decode_ms"] = sumSeconds(named(spans, "snapshot.Read")) * 1e3
		out["manet.restore_ms"] = sumSeconds(named(spans, "manet.RestoreCheckpoint")) * 1e3
	}
}
