// Command stormtrace runs a short simulation with packet-level tracing
// and dumps per-broadcast timelines: who delivered, who rebroadcast, who
// was inhibited, and where collisions destroyed copies. It is the
// forensic view of the broadcast storm.
//
//	stormtrace -scheme flooding -map 1 -requests 2     # watch the storm
//	stormtrace -scheme ac -map 7 -requests 3           # watch suppression
//	stormtrace -scheme counter:C=2 -jsonl trace.jsonl  # machine-readable
//	stormtrace -decode trace.jsonl                     # re-render a dump
//
// Schemes are given as registry specs (run with -schemes for syntax).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/manet"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole tool behind an injectable surface (arguments and
// output streams), so tests drive it as a function. Exit codes follow
// the flag package's convention: 2 for usage errors, 1 for runtime
// failures.
func run(argv []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("stormtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		schemeSpec  = fs.String("scheme", "flooding", "scheme spec, e.g. counter:C=3 (run -schemes for syntax)")
		listSchemes = fs.Bool("schemes", false, "print the scheme spec syntax and exit")
		mapUnits    = fs.Int("map", 3, "square map side in 500m units")
		hosts       = fs.Int("hosts", 30, "number of mobile hosts")
		requests    = fs.Int("requests", 3, "broadcasts to trace")
		seed        = fs.Uint64("seed", 1, "random seed")
		jsonl       = fs.String("jsonl", "", "also write the event stream as JSONL to this file")
		decode      = fs.String("decode", "", "decode a JSONL telemetry/trace file and print its event totals instead of simulating")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "stormtrace:", err)
		return code
	}

	if *listSchemes {
		fmt.Fprint(stdout, "scheme specs:\n", scheme.Usage())
		return 0
	}
	if *decode != "" {
		if err := decodeFile(stdout, *decode); err != nil {
			return fail(1, err)
		}
		return 0
	}

	sch, err := scheme.Parse(*schemeSpec)
	if err != nil {
		return fail(2, err)
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

	net, err := manet.New(manet.Config{
		Hosts:    *hosts,
		MapUnits: *mapUnits,
		Scheme:   sch,
		Requests: *requests,
		Seed:     *seed,

		// The per-broadcast report below walks the full record set.
		RetainRecords: true,
	})
	if err != nil {
		return fail(1, err)
	}
	rec := trace.NewRecorder(0)
	net.Tracer = rec
	s := net.Run()

	for _, br := range net.Records() {
		fmt.Fprint(stdout, rec.Dump(br.ID))
		fmt.Fprintf(stdout, "  => e=%d r=%d t=%d RE=%.3f SRB=%.3f latency=%.1fms\n\n",
			br.Reachable, br.Received, br.Transmitted, br.RE(), br.SRB(),
			br.Latency().Milliseconds())
	}

	printTotals(stdout, rec.CountByKind())
	fmt.Fprintf(stdout, "channel: %d transmissions, %d deliveries, %d collisions\n",
		s.Transmissions, s.Deliveries, s.Collisions)

	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			return fail(1, err)
		}
		err = rec.EncodeJSONL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "wrote %d events to %s (schema v%d)\n", rec.Len(), *jsonl, trace.JSONLVersion)
	}
	return 0
}

// decodeFile reads a JSONL stream written by -jsonl (or by stormsim
// -telemetry / obs.Export — non-event lines are skipped) and prints its
// event totals, proving the stream round-trips.
func decodeFile(stdout io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// A full telemetry export (stormsim -telemetry) opens with a meta
	// line; a bare -jsonl trace has events only. Try the richer format
	// first, then fall back to the plain event stream.
	var events []trace.Event
	if dump, obsErr := obs.Decode(f); obsErr == nil {
		events = dump.Events
		fmt.Fprintf(stdout, "telemetry export: scheme=%s hosts=%d map=%d seed=%d, %d samples\n",
			dump.Meta.Scheme, dump.Meta.Hosts, dump.Meta.MapUnits, dump.Meta.Seed, len(dump.Samples))
	} else {
		if _, err := f.Seek(0, 0); err != nil {
			return err
		}
		events, err = trace.DecodeJSONL(f)
		if err != nil {
			return err
		}
	}
	counts := map[trace.Kind]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	fmt.Fprintf(stdout, "%s: %d events\n", path, len(events))
	printTotals(stdout, counts)
	return nil
}

func printTotals(stdout io.Writer, counts map[trace.Kind]int) {
	fmt.Fprintf(stdout, "totals: %d originate, %d deliver, %d duplicate, %d transmit, %d inhibit, %d garbled\n",
		counts[trace.Originate], counts[trace.Deliver], counts[trace.Duplicate],
		counts[trace.Transmit], counts[trace.Inhibit], counts[trace.Garbled])
}
