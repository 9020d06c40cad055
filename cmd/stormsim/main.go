// Command stormsim runs a single broadcast-storm simulation and prints
// the paper's metrics for it.
//
// Usage:
//
//	stormsim -scheme ac -map 7 -requests 200
//	stormsim -scheme counter:C=3 -map 5 -speed 50
//	stormsim -scheme nc -hello dynamic -map 9
//	stormsim -scheme al -progress -telemetry run.jsonl
//	stormsim -scheme ac -map 3 -hosts 30 -requests 3 -timeline
//
// -timeline prints every broadcast's event timeline (originations,
// deliveries, duplicates, transmissions, inhibit decisions, garbled
// copies) with its record and a closing per-kind "totals:" line: the
// forensic view of the storm. -telemetry writes the same events, with
// the sampled time series, as JSONL that figures -telemetry reads back.
//
// Long runs can be checkpointed and resumed. -checkpoint names a state
// file and -checkpoint-every the simulated cadence; the file always
// holds the latest checkpoint (written atomically via rename). -resume
// restarts a run from such a file — the flags must describe the same
// configuration the checkpoint was taken under, and the resumed run's
// metrics are byte-identical to an uninterrupted one. -fork-seed
// re-seeds the restored hosts instead, turning the checkpoint into the
// shared past of a what-if run. A run that ends before its first
// checkpoint still prints its report, then exits 1 saying no checkpoint
// was written:
//
//	stormsim -scheme ac -map 7 -checkpoint run.ck -checkpoint-every 10000
//	stormsim -scheme ac -map 7 -resume run.ck
//	stormsim -scheme ac -map 7 -resume run.ck -fork-seed 42
//
// Schemes are given as registry specs: flooding, prob:P=0.7,
// counter:C=3, distance:D=40, location:A=0.0469, ac[:n1=..,n2=..],
// al[:n1=..,n2=..,max=..], nc, cluster[:inner=..]. -schemes prints the
// full syntax, then the -scheme spec's threshold for n = 0..15
// neighbors: C(n) or A(n) for the adaptive schemes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"repro/internal/manet"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole tool behind an injectable surface (arguments and
// output streams), so tests drive it as a function. The exit code
// follows the flag package's convention: 2 for usage errors, 1 for
// runtime failures.
func run(argv []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("stormsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		schemeSpec  = fs.String("scheme", "flooding", "scheme spec, e.g. counter:C=3 (run -schemes for syntax)")
		listSchemes = fs.Bool("schemes", false, "print the scheme spec syntax and the -scheme spec's threshold function, and exit")
		mapUnits    = fs.Int("map", 5, "square map side in 500m units (1,3,5,7,9,11)")
		hosts       = fs.Int("hosts", 100, "number of mobile hosts")
		requests    = fs.Int("requests", 100, "broadcast operations to simulate")
		speed       = fs.Float64("speed", 0, "max host speed km/h (0 = paper rule: 10 per map unit)")
		hello       = fs.String("hello", "auto", "off|fixed|dynamic|auto (auto enables fixed when the scheme needs it)")
		helloMS     = fs.Int("hello-interval", 1000, "fixed hello interval, milliseconds")
		seed        = fs.Uint64("seed", 1, "random seed")
		static      = fs.Bool("static", false, "freeze hosts (no mobility)")
		engineName  = fs.String("engine", "auto", "simulation engine: auto|sequential-oracle|sharded|speculative")
		shards      = fs.Int("shards", 0, "shard count for the sharded engines (power of two, 0 = engine default)")
		parStats    = fs.Bool("parallel-stats", false, "report how barrier windows executed (sharded engines)")
		ckptPath    = fs.String("checkpoint", "", "write run checkpoints to this file (with -checkpoint-every)")
		ckptEvery   = fs.Int("checkpoint-every", 0, "checkpoint cadence, simulated milliseconds (with -checkpoint)")
		resumePath  = fs.String("resume", "", "resume the run from this checkpoint file")
		forkSeed    = fs.Uint64("fork-seed", 0, "with -resume: re-seed the restored hosts to fork a what-if run")
		topo        = fs.Bool("topo", false, "print the final topology as an ASCII map")
		progress    = fs.Bool("progress", false, "report simulated-time progress on stderr")
		telemetry   = fs.String("telemetry", "", "write run telemetry (time series + trace events) as JSONL to this file")
		tickMS      = fs.Int("telemetry-tick", 100, "telemetry sampling tick, simulated milliseconds")
		timeline    = fs.Bool("timeline", false, "print every broadcast's event timeline, its record and the event totals")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "stormsim:", err)
		return code
	}

	sch, err := scheme.Parse(*schemeSpec)
	if err != nil {
		return fail(2, err)
	}

	if *listSchemes {
		fmt.Fprint(stdout, "scheme specs:\n", scheme.Usage(), "\n")
		if err := printSchemeFuncs(stdout, *schemeSpec, 15); err != nil {
			return fail(2, err)
		}
		return 0
	}

	// manet.Config reads a zero count as "use the default", so a 0 here
	// would run a different world from the one asked for.
	for _, name := range []string{"hosts", "map", "requests", "hello-interval"} {
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(int); v <= 0 {
			return fail(2, fmt.Errorf("-%s must be positive, got %d", name, v))
		}
	}

	switch {
	case (*ckptPath == "") != (*ckptEvery == 0):
		return fail(2, fmt.Errorf("-checkpoint and -checkpoint-every must be used together"))
	case *ckptEvery < 0:
		return fail(2, fmt.Errorf("-checkpoint-every must be positive, got %d", *ckptEvery))
	case *forkSeed != 0 && *resumePath == "":
		return fail(2, fmt.Errorf("-fork-seed requires -resume"))
	case *tickMS <= 0:
		return fail(2, fmt.Errorf("-telemetry-tick must be positive, got %d", *tickMS))
	case *timeline && (*ckptPath != "" || *resumePath != ""):
		// A resumed run's trace would silently lack every event before
		// the checkpoint.
		return fail(2, fmt.Errorf("-timeline cannot be combined with -checkpoint or -resume"))
	}

	engine, err := manet.ParseEngine(*engineName)
	if err != nil {
		return fail(2, err)
	}
	var helloMode manet.HelloMode
	switch *hello {
	case "auto":
		// leave zero value; defaults enable HELLO when the scheme needs it
	case "off":
		helloMode = manet.HelloOff
	case "fixed":
		helloMode = manet.HelloFixed
	case "dynamic":
		helloMode = manet.HelloDynamic
	default:
		return fail(2, fmt.Errorf("unknown hello mode %q", *hello))
	}

	stopProf, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return fail(1, err)
	}
	// Every return below flushes the profiles: a failed or cancelled run
	// is the one a profile is most wanted for.
	defer func() {
		if err := stopProf(); err != nil && code == 0 {
			code = fail(1, err)
		}
	}()

	cfg := manet.Config{
		Hosts:         *hosts,
		MapUnits:      *mapUnits,
		MaxSpeedKMH:   *speed,
		Static:        *static,
		Scheme:        sch,
		Requests:      *requests,
		HelloMode:     helloMode,
		HelloInterval: sim.Duration(*helloMS) * sim.Millisecond,
		Engine:        engine,
		Shards:        *shards,
		Seed:          *seed,

		// The timeline report walks the full record set.
		RetainRecords: *timeline,
	}

	var col *obs.Collector
	if *telemetry != "" {
		col = obs.New(sim.Duration(*tickMS) * sim.Millisecond)
		cfg.Telemetry = col
	}

	var n *manet.Network
	if *resumePath != "" {
		f, err := os.Open(*resumePath)
		if err != nil {
			return fail(1, err)
		}
		n, err = manet.RestoreNetwork(f, cfg)
		f.Close()
		if err != nil {
			return fail(1, err)
		}
		if *forkSeed != 0 {
			n.DivergeSeed(*forkSeed)
		}
	} else {
		n, err = manet.New(cfg)
		if err != nil {
			return fail(1, err)
		}
	}
	ckptWritten := false
	if *ckptPath != "" {
		n.CheckpointEvery = sim.Duration(*ckptEvery) * sim.Millisecond
		n.CheckpointHook = func(now sim.Time) error {
			if err := writeCheckpoint(n, *ckptPath); err != nil {
				return err
			}
			ckptWritten = true
			if *progress {
				fmt.Fprintf(stderr, "checkpoint at %.1f s -> %s\n", now.Seconds(), *ckptPath)
			}
			return nil
		}
	}
	var rec *obs.Recorder
	if *telemetry != "" || *timeline {
		rec = obs.NewRecorder()
		n.Tracer = rec
	}
	if *progress {
		n.Progress = stderr
	}
	// Ctrl-C cancels cooperatively at the engine's next barrier window
	// instead of killing the process mid-event.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	s, err := n.RunContext(ctx)
	if err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("run cancelled: %w", err)
		}
		return fail(1, err)
	}

	fmt.Fprintf(stdout, "scheme            %s\n", sch.Name())
	fmt.Fprintf(stdout, "engine            %s", n.Engine())
	if n.ShardCount() > 0 {
		fmt.Fprintf(stdout, " (%d shards)", n.ShardCount())
	}
	fmt.Fprintln(stdout)
	// The effective configuration, not the flags: zero values default.
	eff := n.Config()
	fmt.Fprintf(stdout, "map               %dx%d units (%d hosts, max %g km/h)\n",
		eff.MapUnits, eff.MapUnits, eff.Hosts, eff.MaxSpeedKMH)
	fmt.Fprintf(stdout, "broadcasts        %d\n", s.Broadcasts)
	fmt.Fprintf(stdout, "RE  (reachability)        %.4f (std %.4f)\n", s.MeanRE, s.StdRE)
	fmt.Fprintf(stdout, "SRB (saved rebroadcasts)  %.4f (std %.4f)\n", s.MeanSRB, s.StdSRB)
	fmt.Fprintf(stdout, "mean latency              %.2f ms\n", s.MeanLatency.Milliseconds())
	fmt.Fprintf(stdout, "hello packets sent        %d\n", s.HelloSent)
	fmt.Fprintf(stdout, "transmissions             %d\n", s.Transmissions)
	fmt.Fprintf(stdout, "deliveries / collisions   %d / %d\n", s.Deliveries, s.Collisions)
	fmt.Fprintf(stdout, "simulated time            %.1f s (%d events)\n",
		s.SimulatedTime.Seconds(), s.Events)

	if *parStats {
		st := n.ParallelStats()
		var lanes uint64
		for _, c := range st.ShardExecuted {
			lanes += c
		}
		fmt.Fprintf(stdout, "barrier windows           %d\n", st.Barriers)
		fmt.Fprintf(stdout, "lane / border events      %d / %d (border share %.3f)\n",
			lanes, st.BorderExecuted, st.BorderShare())
		if st.Speculated > 0 {
			fmt.Fprintf(stdout, "speculative windows       %d committed / %d rolled back of %d (commit rate %.3f)\n",
				st.Committed, st.RolledBack, st.Speculated, st.CommitRate())
		}
	}

	if *telemetry != "" {
		if err := writeTelemetry(*telemetry, n.Config(), sch, col, rec); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "telemetry                 %s (%d samples, %d events)\n",
			*telemetry, len(col.Samples()), rec.Len())
	}

	if *timeline {
		fmt.Fprintln(stdout)
		for _, br := range n.Records() {
			fmt.Fprint(stdout, rec.Dump(br.ID))
			fmt.Fprintf(stdout, "  => e=%d r=%d t=%d RE=%.3f SRB=%.3f latency=%.1fms\n\n",
				br.Reachable, br.Received, br.Transmitted, br.RE(), br.SRB(),
				br.Latency().Milliseconds())
		}
		fmt.Fprint(stdout, obs.Totals(rec.CountByKind()))
	}

	if *topo {
		pts := n.Positions()
		w, h := n.Area()
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "final topology (each cell ~", int(w)/72, "m wide):")
		fmt.Fprint(stdout, viz.Topology(pts, w, h, 72))
		fmt.Fprint(stdout, viz.ConnectivitySummary(pts, n.Config().Radius))
	}

	if *ckptPath != "" && !ckptWritten {
		return fail(1, fmt.Errorf("no checkpoint written: the run ended at %.1f s, before the first -checkpoint-every %d ms",
			s.SimulatedTime.Seconds(), *ckptEvery))
	}
	return 0
}

// writeCheckpoint writes the network's state next to the target and
// renames it into place, so the checkpoint file is never half-written
// even if the process dies mid-checkpoint.
func writeCheckpoint(n *manet.Network, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := n.Checkpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// writeTelemetry exports the run's series and event stream as JSONL.
func writeTelemetry(path string, cfg manet.Config, sch scheme.Scheme, col *obs.Collector, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := obs.Meta{
		Scheme:   sch.Name(),
		Hosts:    cfg.Hosts,
		MapUnits: cfg.MapUnits,
		Seed:     cfg.Seed,
	}
	if err := obs.Export(f, meta, col, rec.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSchemeFuncs tabulates the decision threshold a parsed spec would
// apply at each neighbor count n — the paper's C(n) and A(n) curves
// (Figs. 6, 8) for the adaptive schemes, or the constant threshold for
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
