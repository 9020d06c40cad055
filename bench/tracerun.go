package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/geom"
	"repro/internal/manet"
	"repro/internal/metrics"
)

// perLayer lists every per-layer metric a traced run can report, as
// BENCHMARK.json lists them. A metric that does not apply to a workload
// (no checkpoints outside ckpt-resume, no engine arms on the default
// engine, no movers in a static world) is absent from that workload's
// table and reads 0 in its result line.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// (a) spans around the bench's calls into each layer
		{"experiment.self_s", "s", "lower", 0},
		{"experiment.worker_idle_share", "ratio", "lower", 0},
		{"experiment.op_ms_p50", "ms", "lower", 0},
		{"experiment.op_ms_max", "ms", "lower", 0},
		{"manet.construct_s", "s", "lower", 0},
		{"manet.construct_allocs", "allocs", "lower", 0},
		{"manet.run_s", "s", "lower", 0},
		{"manet.run_allocs_per_event", "allocs/event", "lower", 0},
		{"manet.run_bytes_per_event", "B/event", "lower", 0},
		{"metrics.merge_s", "s", "lower", 0},
		{"manet.checkpoint_ms", "ms", "lower", 0},
		{"manet.checkpoint_count", "count", "lower", 0},
		{"snapshot.doc_kb", "KiB", "lower", 0},
		{"snapshot.decode_ms", "ms", "lower", 0},
		{"manet.restore_ms", "ms", "lower", 0},
		{"trace.overhead_share", "ratio", "lower", 0},
		{"manet.engine.sequential_s", "s", "lower", 0},
		{"manet.engine.sharded_s", "s", "lower", 0},
		{"manet.engine.speculative_s", "s", "lower", 0},
		{"manet.shard_scaling", "ratio", "higher", 0},
		{"manet.border_share", "ratio", "lower", 0},
		{"manet.commit_rate", "ratio", "higher", 0},
		{"manet.rollback_share", "ratio", "lower", 0},
		{"manet.barrier_wait_share", "ratio", "lower", 0},
		{"manet.barriers", "count", "lower", 0},
		// (b) exact counts from metrics.Summary
		{"sim.events", "count", "lower", 0},
		{"sim.events_per_broadcast", "events", "lower", 0},
		{"phy.transmissions", "count", "lower", 0},
		{"phy.deliveries_per_tx", "frames", "higher", 0},
		{"phy.collisions_per_tx", "frames", "lower", 0},
		{"phy.delivered_share", "ratio", "higher", 0},
		{"neighbor.hello_sent", "count", "lower", 0},
		{"neighbor.hello_share_of_tx", "ratio", "lower", 0},
		{"manet.broadcasts", "count", "higher", 0},
	}
	// (c) CPU share by layer
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "ratio", "lower", 0})
	}
	// (d) layer drivers
	for _, d := range []struct{ name, unit string }{
		{"sim.hold_ns", "ns"}, {"sim.hold_allocs", "allocs"}, {"sim.cancel_ns", "ns"},
		{"geom.grid_rebuild_ns_per_host", "ns"}, {"geom.grid_within_ns", "ns"}, {"geom.uncovered_ns", "ns"},
		{"mobility.position_ns", "ns"}, {"mobility.turn_ns", "ns"},
		{"phy.transmit_ns", "ns"}, {"phy.transmit_ns_per_receiver", "ns"}, {"phy.transmit_allocs", "allocs"},
		{"phy.neighbors_ns", "ns"}, {"mac.enqueue_to_done_ns", "ns"},
		{"neighbor.on_hello_ns", "ns"}, {"neighbor.twohop_ns", "ns"}, {"nodeset.union_intersect_ns", "ns"},
		{"scheme.judge_ns.counter", "ns"}, {"scheme.judge_ns.ac", "ns"}, {"scheme.judge_ns.location", "ns"},
		{"scheme.judge_ns.al", "ns"}, {"scheme.judge_ns.nc", "ns"},
		{"metrics.fold_ns", "ns"}, {"metrics.summary_ns", "ns"},
		{"snapshot.encode_ns_per_kb", "ns"}, {"snapshot.decode_ns_per_kb", "ns"},
		{"pdes.walk_ns_per_host", "ns"}, {"pdes.pool_do_ns", "ns"},
	} {
		defs = append(defs, metricDef{d.name, d.unit, "lower", 0})
	}
	return defs
}

func layerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// engineArms are the engines the traced run times on a workload that
// selects one, by ParseEngine name, with the metric each fills. A name
// that no longer parses drops its row.
var engineArms = []struct{ engine, metric string }{
	{oracleEngine, "manet.engine.sequential_s"},
	{"sharded", "manet.engine.sharded_s"},
	{"speculative", "manet.engine.speculative_s"},
}

// tracedRun is the per-layer pass: the workload once under spans and a
// CPU profile, then the engine arms, then the layer drivers. It is never
// mixed with the end-to-end repeats.
func tracedRun(o options, w workloadSpec, res *childResult) error {
	layer := map[string]float64{}
	res.Layer = layer
	j := newJob(o, w)
	tr := newTracer(w.name)
	tr.allocs = !j.concurrent

	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms0)
	root := tr.root("bench.timed")
	sums, digests := execute(j, root, res)
	root.end()
	runtime.ReadMemStats(&ms1)
	pprof.StopCPUProfile()
	res.report(j, sums, digests)
	if sums == nil {
		return nil // the failure is counted; there is nothing to attribute
	}

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	for l, share := range foldProfile(samples) {
		layer[l+".cpu_share"] = share
	}

	total := metrics.Merge(sums)
	countMetrics(total, layer)
	spanMetrics(tr.spans, benchProcs, layer)

	// What the run phase allocated per event: the timed phase's totals
	// minus what its constructions allocated.
	news := named(tr.spans, "manet.New")
	mallocs, bytesAlloc := sumCount(news, "mallocs"), sumCount(news, "bytes")
	if j.concurrent {
		mallocs, bytesAlloc = constructionCost(j.cfgs)
		mallocs, bytesAlloc = mallocs*float64(len(news)), bytesAlloc*float64(len(news))
	}
	layer["manet.construct_allocs"] = mallocs / float64(len(news))
	layer["manet.run_allocs_per_event"] = max(0, float64(ms1.Mallocs-ms0.Mallocs)-mallocs) / float64(total.Events)
	layer["manet.run_bytes_per_event"] = max(0, float64(ms1.TotalAlloc-ms0.TotalAlloc)-bytesAlloc) / float64(total.Events)

	if w.engine != "" {
		parallelMetrics(mergeParallel(j.parallel), j.wall.Seconds(), layer)
		engineMetrics(o, w, res, layer)
	}

	in := driverInput{
		cfg:      j.cfgs[0].WithDefaults(),
		depth:    int(sumCount(news, "pending")) / len(news),
		fanout:   max(1, int(float64(total.Deliveries+total.Collisions)/float64(total.Transmissions)+0.5)),
		requests: j.cfgs[0].Requests,
		seed:     o.seed,
	}
	in.pts = placement(in.cfg, o.seed)
	if err := runDrivers(in, layer); err != nil {
		return err
	}

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(o.out, "trace-"+w.name+".jsonl"))
}

// countMetrics fills the exact counts, which repeat run to run.
func countMetrics(s metrics.Summary, out map[string]float64) {
	tx := float64(s.Transmissions)
	out["sim.events"] = float64(s.Events)
	out["sim.events_per_broadcast"] = float64(s.Events) / float64(s.Broadcasts)
	out["phy.transmissions"] = tx
	out["phy.deliveries_per_tx"] = float64(s.Deliveries) / tx
	out["phy.collisions_per_tx"] = float64(s.Collisions) / tx
	out["phy.delivered_share"] = float64(s.Deliveries) / float64(s.Deliveries+s.Collisions)
	out["neighbor.hello_sent"] = float64(s.HelloSent)
	out["neighbor.hello_share_of_tx"] = float64(s.HelloSent) / tx
	out["manet.broadcasts"] = float64(s.Broadcasts)
}

// constructionCost measures what one manet.New allocates, as mallocs and
// bytes, as the mean over the first few of cfgs built on this goroutine
// alone. The sweep needs it because a delta taken around a construction
// inside it would include the other worker's allocations.
func constructionCost(cfgs []manet.Config) (mallocs, bytes float64) {
	var ms0, ms1 runtime.MemStats
	built := 0
	for _, cfg := range cfgs[:min(len(cfgs), len(sweepCandidates()))] {
		runtime.ReadMemStats(&ms0)
		n, err := manet.New(cfg)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			continue // the timed run already counted this failure
		}
		sink = n
		built++
		mallocs += float64(ms1.Mallocs - ms0.Mallocs)
		bytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
	}
	if built == 0 {
		return 0, 0
	}
	return mallocs / float64(built), bytes / float64(built)
}

// mergeParallel sums the barrier accounting of a job's worlds.
func mergeParallel(stats []manet.ParallelStats) manet.ParallelStats {
	var sum manet.ParallelStats
	for _, st := range stats {
		sum.Barriers += st.Barriers
		sum.Widened += st.Widened
		sum.BorderExecuted += st.BorderExecuted
		sum.WaitNS += st.WaitNS
		sum.Speculated += st.Speculated
		sum.Committed += st.Committed
		sum.RolledBack += st.RolledBack
		for len(sum.ShardExecuted) < len(st.ShardExecuted) {
			sum.ShardExecuted = append(sum.ShardExecuted, 0)
		}
		for i, n := range st.ShardExecuted {
			sum.ShardExecuted[i] += n
		}
	}
	return sum
}

// parallelMetrics fills the sharded engine's barrier rows from the
// traced run itself.
func parallelMetrics(st manet.ParallelStats, runS float64, out map[string]float64) {
	out["manet.barriers"] = float64(st.Barriers)
	out["manet.border_share"] = st.BorderShare()
	out["manet.barrier_wait_share"] = float64(st.WaitNS) / 1e9 / (runS * benchProcs)
}

// engineMetrics runs the workload's first world once per engine that
// parses, and once on one shard, timing Network.Run. Every arm must
// reproduce the oracle arm's summary.
func engineMetrics(o options, w workloadSpec, res *childResult, out map[string]float64) {
	arm := func(engine string, shards int) (*job, []string) {
		j := w.build(o.seed, scales[o.scale])
		if !j.setEngine(engine, shards) {
			return nil, nil
		}
		j.firstWorldOnly()
		_, digests := execute(j, nil, res)
		return j, digests
	}
	var want []string
	for _, a := range engineArms {
		j, digests := arm(a.engine, benchProcs)
		if digests == nil {
			continue
		}
		out[a.metric] = j.wall.Seconds()
		if a.engine == oracleEngine {
			want = digests
		} else {
			res.compare(1, want, digests, a.engine+" against "+oracleEngine)
		}
		if st := mergeParallel(j.parallel); st.Speculated > 0 {
			out["manet.commit_rate"] = st.CommitRate()
			out["manet.rollback_share"] = float64(st.RolledBack) / float64(st.Speculated)
		}
	}
	if one, digests := arm("sharded", 1); digests != nil {
		res.compare(1, want, digests, "sharded on one shard against "+oracleEngine)
		if two, ok := out["manet.engine.sharded_s"]; ok {
			out["manet.shard_scaling"] = one.wall.Seconds() / two
		}
	}
}

// placement is the host positions the drivers work on: the workload's
// own when it fixes them, else a uniform draw over its map.
func placement(cfg manet.Config, seed uint64) []geom.Point {
	if len(cfg.Placement) > 0 {
		return cfg.Placement
	}
	rng := inputRNG(seed, 9)
	side := float64(cfg.MapUnits) * cfg.UnitMeters
	pts := make([]geom.Point, cfg.Hosts)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	return pts
}
