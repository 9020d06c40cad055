// Command routesim runs AODV-lite route-discovery experiments over the
// broadcast-storm substrate: route requests are disseminated under a
// chosen suppression scheme; route replies unicast back with 802.11
// DATA/ACK (and optional RTS/CTS).
//
//	routesim -scheme ac -map 5 -discoveries 100
//	routesim -scheme flooding -ring 2,0      # expanding-ring search
//	routesim -scheme nc -rts 1               # RTS/CTS on replies
//
// Schemes are given as registry specs (run with -schemes for syntax).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/routing"
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
	fs := flag.NewFlagSet("routesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		schemeSpec  = fs.String("scheme", "flooding", "scheme spec, e.g. counter:C=3 (run -schemes for syntax)")
		listSchemes = fs.Bool("schemes", false, "print the scheme spec syntax and exit")
		mapUnits    = fs.Int("map", 5, "square map side in 500m units")
		hosts       = fs.Int("hosts", 100, "number of mobile hosts")
		discoveries = fs.Int("discoveries", 50, "route discoveries to attempt")
		speed       = fs.Float64("speed", 0, "max host speed km/h (0 = paper rule)")
		static      = fs.Bool("static", false, "freeze hosts")
		rts         = fs.Int("rts", 0, "RTS/CTS threshold in bytes for unicast replies (0 = off)")
		ring        = fs.String("ring", "", "expanding-ring TTLs, comma separated (e.g. 2,0); empty = full flood")
		data        = fs.Int("data", 0, "data packets to push along each established route (route maintenance)")
		seed        = fs.Uint64("seed", 1, "random seed")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "routesim:", err)
		return code
	}

	if *listSchemes {
		fmt.Fprint(stdout, "scheme specs:\n", scheme.Usage())
		return 0
	}

	sch, err := scheme.Parse(*schemeSpec)
	if err != nil {
		return fail(2, err)
	}

	// routing.Config reads a zero count as "use the default", so a 0 here
	// would run a different experiment from the one asked for.
	for _, name := range []string{"hosts", "map", "discoveries"} {
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(int); v <= 0 {
			return fail(2, fmt.Errorf("-%s must be positive, got %d", name, v))
		}
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

	var ttls []int
	if *ring != "" {
		for _, part := range strings.Split(*ring, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 0 {
				return fail(2, fmt.Errorf("bad -ring value %q", part))
			}
			ttls = append(ttls, v)
		}
	}

	n, err := routing.New(routing.Config{
		Hosts:        *hosts,
		MapUnits:     *mapUnits,
		MaxSpeedKMH:  *speed,
		Static:       *static,
		Scheme:       sch,
		Discoveries:  *discoveries,
		RTSThreshold: *rts,
		RingTTLs:     ttls,
		DataPerRoute: *data,
		Seed:         *seed,
	})
	if err != nil {
		return fail(1, err)
	}
	r := n.Run()

	fmt.Fprintf(stdout, "scheme                  %s\n", sch.Name())
	fmt.Fprintf(stdout, "discoveries             %d\n", r.Discoveries)
	fmt.Fprintf(stdout, "target reached          %d (%.1f%%)\n",
		r.TargetReached, 100*float64(r.TargetReached)/float64(max(1, r.Discoveries)))
	fmt.Fprintf(stdout, "routes established      %d (%.1f%%)\n", r.Succeeded, 100*r.SuccessRate())
	fmt.Fprintf(stdout, "mean route length       %.2f hops\n", r.MeanRouteHops)
	fmt.Fprintf(stdout, "mean discovery latency  %.1f ms\n", r.MeanDiscoveryLatency.Milliseconds())
	fmt.Fprintf(stdout, "RREQ tx per discovery   %.1f\n", r.RequestsPerDiscovery())
	fmt.Fprintf(stdout, "ring escalations        %d\n", r.RingEscalations)
	fmt.Fprintf(stdout, "RREP retries / drops    %d / %d\n", r.UnicastRetries, r.UnicastDrops)
	fmt.Fprintf(stdout, "replies dropped (no reverse route)  %d\n", r.RepliesDropped)
	if r.DataSent > 0 {
		fmt.Fprintf(stdout, "data sent / delivered   %d / %d (%.1f%%)\n",
			r.DataSent, r.DataDelivered, 100*float64(r.DataDelivered)/float64(r.DataSent))
		fmt.Fprintf(stdout, "path breaks             %d\n", r.PathBreaks)
	}
	fmt.Fprintf(stdout, "hello packets           %d\n", r.HelloSent)
	fmt.Fprintf(stdout, "total tx / collisions   %d / %d\n", r.Transmissions, r.Collisions)
	return 0
}
