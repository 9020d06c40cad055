package experiment

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/manet"
	"repro/internal/metrics"
)

// RunMatrix executes every configuration with o.Replicas independent
// seeds, spreading the replica runs over a worker pool, and returns the
// merged summary for each configuration in input order. Any construction
// error or simulation panic aborts the whole matrix via a single panic
// from the calling goroutine, annotated with the failing (point,
// replica, seed): experiment specs are code, and a config they build
// that fails validation is a programming error. So is a config carrying
// a manet.Arena, a Telemetry collector or an Audit auditor — the matrix
// would hand the one object to every replica, on every worker — which
// panics naming the point before any worker starts.
func RunMatrix(cfgs []manet.Config, o Options) []metrics.Summary {
	reps := runReplicas(cfgs, o)
	merged := make([]metrics.Summary, len(reps))
	for p, r := range reps {
		merged[p] = metrics.Merge(r)
	}
	return merged
}

// runReplicas is RunMatrix before the merge: every replica's summary,
// by point.
func runReplicas(cfgs []manet.Config, o Options) [][]metrics.Summary {
	o = o.WithDefaults()

	type task struct {
		point, replica int
		cfg            manet.Config
	}
	tasks := make([]task, 0, len(cfgs)*o.Replicas)
	for p, cfg := range cfgs {
		// Every replica below is a copy of cfg, so all of them — on
		// several workers at once — would share what these point at.
		switch {
		case cfg.Arena != nil:
			panic(fmt.Sprintf("experiment: point %d carries a manet.Arena: an Arena backs one live Network; RunMatrix runs several", p))
		case cfg.Telemetry != nil:
			panic(fmt.Sprintf("experiment: point %d carries a Telemetry collector: a collector observes one run; RunMatrix runs several", p))
		case cfg.Audit != nil:
			panic(fmt.Sprintf("experiment: point %d carries an Audit auditor: an auditor observes one run; RunMatrix runs several", p))
		}
		if cfg.Hosts == 0 {
			cfg.Hosts = o.Hosts
		}
		if cfg.Requests == 0 {
			cfg.Requests = o.Requests
		}
		for r := 0; r < o.Replicas; r++ {
			c := cfg
			c.Seed = o.BaseSeed + SeedStride*uint64(p) + uint64(r)
			tasks = append(tasks, task{point: p, replica: r, cfg: c})
		}
	}

	results := make([][]metrics.Summary, len(cfgs))
	for p := range results {
		results[p] = make([]metrics.Summary, o.Replicas)
	}

	workers := o.Workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}

	var mu sync.Mutex
	var firstErr error
	// Matrix-level progress: completed replicas, aggregate simulated
	// event rate, and an ETA extrapolated from the mean replica time.
	// All counters are guarded by mu; the line is written under it too so
	// concurrent workers cannot interleave partial lines.
	startWall := time.Now()
	completed := 0
	var totalEvents int64
	report := func(s metrics.Summary) {
		completed++
		totalEvents += int64(s.Events)
		if o.Progress == nil {
			return
		}
		elapsed := time.Since(startWall)
		rate := float64(totalEvents) / elapsed.Seconds()
		eta := time.Duration(float64(elapsed) / float64(completed) * float64(len(tasks)-completed))
		fmt.Fprintf(o.Progress, "experiment %d/%d replicas  %.0f events/s  ETA %s\n",
			completed, len(tasks), rate, eta.Round(time.Second))
	}
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	// runTask executes one replica, converting construction errors and
	// simulation panics into an error carrying the failing coordinates.
	// Without the recover, a panic inside manet.Network.Run would kill
	// the whole process from a worker goroutine with no indication of
	// which (point, replica, seed) died.
	runTask := func(tk task) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("point %d replica %d (seed %d): panic: %v",
					tk.point, tk.replica, tk.cfg.Seed, r)
			}
		}()
		n, err := manet.New(tk.cfg)
		if err != nil {
			return fmt.Errorf("point %d replica %d (seed %d): %w",
				tk.point, tk.replica, tk.cfg.Seed, err)
		}
		s := n.Run()
		mu.Lock()
		results[tk.point][tk.replica] = s
		report(s)
		mu.Unlock()
		return nil
	}

	ch := make(chan task)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for tk := range ch {
				// Fail fast: once any replica has failed the matrix is
				// doomed to panic below, so drain the remaining tasks
				// instead of burning minutes of simulation on results
				// that will be thrown away.
				if failed() {
					continue
				}
				if err := runTask(tk); err != nil {
					fail(err)
				}
			}
		}()
	}
	for _, tk := range tasks {
		ch <- tk
	}
	close(ch)
	wg.Wait()
	if firstErr != nil {
		// Re-panic exactly once, from the coordinating goroutine, after
		// the pool has shut down cleanly.
		panic(fmt.Errorf("experiment: %w", firstErr))
	}

	return results
}
