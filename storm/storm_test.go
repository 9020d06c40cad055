package storm_test

import (
	"testing"

	"repro/storm"
)

// TestFacadeRun exercises the package end to end: parse a spec, run a
// small workload, and check the summary is sane — proving the aliases
// wire to the real simulator.
func TestFacadeRun(t *testing.T) {
	sch, err := storm.ParseScheme("counter:C=3")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := storm.Run(sch, 1, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Broadcasts == 0 || sum.MeanRE <= 0 || sum.MeanRE > 1 {
		t.Fatalf("implausible summary: %+v", sum)
	}
}

// TestFacadeConfigInterop verifies storm.Config really is manet.Config:
// a value built through the facade, with a facade collector attached,
// drives the full simulator.
func TestFacadeConfigInterop(t *testing.T) {
	col := storm.NewCollector(100 * storm.Millisecond)
	n, err := storm.New(storm.Config{
		Scheme:    storm.AdaptiveCounter{},
		MapUnits:  1,
		Hosts:     20,
		Requests:  5,
		Seed:      7,
		Telemetry: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := n.Run()
	if sum.Broadcasts != 5 {
		t.Fatalf("Broadcasts = %d, want 5", sum.Broadcasts)
	}
	if len(col.Samples()) == 0 {
		t.Fatal("facade collector gathered no samples")
	}
}

// TestSchemeNamesParse checks every advertised name round-trips through
// ParseScheme.
func TestSchemeNamesParse(t *testing.T) {
	names := storm.SchemeNames()
	if len(names) == 0 {
		t.Fatal("no scheme names")
	}
	for _, name := range names {
		if _, err := storm.ParseScheme(name); err != nil {
			t.Errorf("ParseScheme(%q): %v", name, err)
		}
	}
	if len(storm.Schemes()) == 0 {
		t.Fatal("no scheme instances")
	}
}

func TestRunEndToEnd(t *testing.T) {
	s, err := storm.Run(storm.AdaptiveCounter{}, 3, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Broadcasts != 10 {
		t.Errorf("broadcasts = %d", s.Broadcasts)
	}
	if s.MeanRE <= 0 || s.MeanRE > 1 {
		t.Errorf("RE = %v out of range", s.MeanRE)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := storm.Run(storm.Flooding{}, -1, 10, 1); err == nil {
		t.Error("negative map accepted")
	}
}

func TestSchemesComplete(t *testing.T) {
	ss := storm.Schemes()
	if len(ss) != 9 {
		t.Fatalf("scheme roster = %d, want 9", len(ss))
	}
	names := map[string]bool{}
	for _, s := range ss {
		if names[s.Name()] {
			t.Errorf("duplicate scheme %s", s.Name())
		}
		names[s.Name()] = true
	}
	for _, want := range []string{"flooding", "AC", "AL", "NC"} {
		if !names[want] {
			t.Errorf("roster missing %s", want)
		}
	}
}
