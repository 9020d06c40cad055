package storm_test

import (
	"math"
	"strings"
	"testing"

	"repro/storm"
)

// TestConfigValidationErrors drives every option-validation error path
// through the public facade: a storm.Config IS a manet.Config, so the
// internal validator's diagnostics must surface from storm.New.
func TestConfigValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  storm.Config
		want string
	}{
		{"negative hosts", storm.Config{Hosts: -1}, "at least one host"},
		{"negative map", storm.Config{MapUnits: -3}, "at least 1x1"},
		{"negative radius", storm.Config{Radius: -500}, "radius must be positive"},
		{"negative requests", storm.Config{Requests: -1}, "negative request count"},
		{"negative slots", storm.Config{AssessmentSlots: -1}, "negative assessment slots"},
		{"placement mismatch", storm.Config{Hosts: 3, Static: true,
			Placement: []storm.Point{{X: 0, Y: 0}}}, "placement has 1 points"},
		{"loss rate", storm.Config{LossRate: 1.5}, "loss rate"},
		{"capture ratio", storm.Config{CaptureRatio: 0.5}, "capture ratio"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			n, err := storm.New(tc.cfg)
			if err == nil {
				t.Fatalf("New(%+v) accepted an invalid config", tc.cfg)
			}
			if n != nil {
				t.Fatal("non-nil network alongside an error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseSchemeErrors covers the spec-parsing failure paths the CLI
// tools rely on for diagnostics.
func TestParseSchemeErrors(t *testing.T) {
	for _, spec := range []string{"", "nosuchscheme", "counter:C=notanumber"} {
		if _, err := storm.ParseScheme(spec); err == nil {
			t.Errorf("ParseScheme(%q) succeeded", spec)
		}
	}
}

// TestEverySchemeSpecRuns pushes every advertised scheme spec through the
// whole public path: parse, configure, simulate, summarize.
func TestEverySchemeSpecRuns(t *testing.T) {
	names := storm.SchemeNames()
	if len(names) == 0 {
		t.Fatal("no scheme names advertised")
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			sch, err := storm.ParseScheme(name)
			if err != nil {
				t.Fatal(err)
			}
			n, err := storm.New(storm.Config{
				Scheme:   sch,
				MapUnits: 1,
				Hosts:    15,
				Requests: 3,
				Seed:     1,
			})
			if err != nil {
				t.Fatal(err)
			}
			sum := n.Run()
			if sum.Broadcasts != 3 {
				t.Fatalf("Broadcasts = %d, want 3", sum.Broadcasts)
			}
			if sum.MeanRE < 0 || sum.MeanRE > 1 {
				t.Fatalf("MeanRE = %g outside [0, 1]", sum.MeanRE)
			}
			if sum.Transmissions < 1 {
				t.Fatalf("no transmissions: %+v", sum)
			}
		})
	}
}

// TestQuickstartGolden pins the exact summary of the package-doc
// quickstart (storm.Run("ac", 5, 100, 1)). The simulator is
// deterministic, so any drift in these numbers means an unintended
// model change slipped in.
func TestQuickstartGolden(t *testing.T) {
	sch, err := storm.ParseScheme("ac")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := storm.Run(sch, 5, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	intFields := []struct {
		name string
		got  int
		want int
	}{
		{"Broadcasts", sum.Broadcasts, 100},
		{"HelloSent", sum.HelloSent, 10831},
		{"Transmissions", sum.Transmissions, 16826},
		{"Deliveries", sum.Deliveries, 135518},
		{"Collisions", sum.Collisions, 23975},
		{"Events", int(sum.Events), 55847},
	}
	for _, f := range intFields {
		if f.got != f.want {
			t.Errorf("%s = %d, want %d", f.name, f.got, f.want)
		}
	}
	if math.Abs(sum.MeanRE-0.97134) > 1e-4 {
		t.Errorf("MeanRE = %g, want ~0.97134", sum.MeanRE)
	}
	if math.Abs(sum.MeanSRB-0.36174) > 1e-4 {
		t.Errorf("MeanSRB = %g, want ~0.36174", sum.MeanSRB)
	}
}

// TestAuditorOption attaches the invariant auditor through the facade
// and requires a clean, reconciled run with an unchanged summary.
func TestAuditorOption(t *testing.T) {
	base := storm.Config{
		Scheme:   storm.NeighborCoverage{},
		MapUnits: 1,
		Hosts:    20,
		Requests: 5,
		Seed:     3,
	}
	n, err := storm.New(base)
	if err != nil {
		t.Fatal(err)
	}
	plain := n.Run()

	a := storm.NewAuditor()
	cfg := base
	cfg.Audit = a
	an, err := storm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	audited := an.Run()

	if plain != audited {
		t.Errorf("auditor perturbed the facade run:\n off %+v\n on  %+v", plain, audited)
	}
	if err := a.Err(); err != nil {
		t.Error(err)
	}
	if !a.Ok() || a.Total() != 0 || len(a.Violations()) != 0 {
		t.Errorf("auditor not clean: total=%d violations=%v", a.Total(), a.Violations())
	}
}

// TestRoutingFacade runs a small route-discovery experiment through the
// facade aliases.
func TestRoutingFacade(t *testing.T) {
	n, err := storm.NewRouting(storm.RoutingConfig{
		Hosts:       30,
		MapUnits:    3,
		Static:      true,
		Scheme:      storm.AdaptiveCounter{},
		Discoveries: 5,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := n.Run()
	if r.Discoveries != 5 {
		t.Fatalf("Discoveries = %d, want 5", r.Discoveries)
	}
}

// TestSmallHelpers covers the remaining façade surface: the RNG
// constructor, usage text, and the paper's speed rule.
func TestSmallHelpers(t *testing.T) {
	rng := storm.NewRNG(42)
	if rng == nil {
		t.Fatal("NewRNG returned nil")
	}
	if v := rng.Float64(); v < 0 || v >= 1 {
		t.Fatalf("Float64 = %g outside [0, 1)", v)
	}
	usage := storm.SchemeUsage()
	for _, name := range storm.SchemeNames() {
		if !strings.Contains(usage, name) {
			t.Errorf("usage text missing scheme %q", name)
		}
	}
	if got := storm.PaperMaxSpeedKMH(5); got != 50 {
		t.Fatalf("PaperMaxSpeedKMH(5) = %g, want 50", got)
	}
}
