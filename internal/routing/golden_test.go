package routing

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/scheme"
)

var update = flag.Bool("update", false, "rewrite testdata/results.golden from this tree")

const goldenPath = "testdata/results.golden"

// goldenRows are the route-discovery configurations the tree's callers
// run: experiment's abl-rts variants at their default options,
// cmd/routesim's CI invocation and its ring, data and static arms, and
// both loops of examples/aodv.
var goldenRows = []struct {
	name string
	cfg  Config
}{
	{"abl-rts/flooding-no-rts", Config{Hosts: 100, MapUnits: 5, Scheme: scheme.Flooding{}, Discoveries: 40, Seed: 1}},
	{"abl-rts/flooding-rts", Config{Hosts: 100, MapUnits: 5, Scheme: scheme.Flooding{}, Discoveries: 40, RTSThreshold: 1, Seed: 2}},
	{"abl-rts/ac-no-rts", Config{Hosts: 100, MapUnits: 5, Scheme: scheme.AdaptiveCounter{}, Discoveries: 40, Seed: 3}},
	{"abl-rts/ac-rts", Config{Hosts: 100, MapUnits: 5, Scheme: scheme.AdaptiveCounter{}, Discoveries: 40, RTSThreshold: 1, Seed: 4}},

	{"routesim/ci", Config{Hosts: 100, MapUnits: 5, Scheme: scheme.Flooding{}, Discoveries: 3, Seed: 1}},
	{"routesim/ring-1-2-0", Config{Hosts: 100, MapUnits: 5, Scheme: scheme.Flooding{}, Discoveries: 3, RingTTLs: []int{1, 2, 0}, Seed: 1}},
	{"routesim/data-5", Config{Hosts: 100, MapUnits: 5, Scheme: scheme.Flooding{}, Discoveries: 3, DataPerRoute: 5, Seed: 1}},
	{"routesim/static", Config{Hosts: 100, MapUnits: 5, Scheme: scheme.Flooding{}, Discoveries: 3, Static: true, Seed: 1}},

	{"aodv/flooding", Config{Hosts: 100, MapUnits: 5, Scheme: scheme.Flooding{}, Discoveries: 60, Seed: 21}},
	{"aodv/counter-3", Config{Hosts: 100, MapUnits: 5, Scheme: scheme.Counter{C: 3}, Discoveries: 60, Seed: 21}},
	{"aodv/ac", Config{Hosts: 100, MapUnits: 5, Scheme: scheme.AdaptiveCounter{}, Discoveries: 60, Seed: 21}},
	{"aodv/nc", Config{Hosts: 100, MapUnits: 5, Scheme: scheme.NeighborCoverage{}, Discoveries: 60, Seed: 21}},
	{"aodv/ac-full-flood", Config{Hosts: 100, MapUnits: 5, Scheme: scheme.AdaptiveCounter{}, Discoveries: 60, Seed: 21}},
	{"aodv/ac-ring-2-0", Config{Hosts: 100, MapUnits: 5, Scheme: scheme.AdaptiveCounter{}, Discoveries: 60, RingTTLs: []int{2, 0}, Seed: 21}},
}

// TestGoldenResults pins the full Result of every goldenRows config to
// the line committed in testdata/results.golden, as %+v (whose
// shortest-round-trip floats make text equality bit equality).
func TestGoldenResults(t *testing.T) {
	var want map[string]string
	if !*update {
		want = readGolden(t)
	}
	var got []string
	for _, row := range goldenRows {
		n, err := New(row.cfg)
		if err != nil {
			t.Fatal(err)
		}
		line := fmt.Sprintf("%+v", n.Run())
		got = append(got, row.name+" "+line)
		if want == nil {
			continue
		}
		if w, ok := want[row.name]; !ok {
			t.Errorf("%s: no golden line (run with -update to add it)", row.name)
		} else if w != line {
			t.Errorf("%s diverges from golden:\n got: %s\nwant: %s", row.name, line, w)
		}
	}
	if *update {
		if t.Failed() {
			t.Fatal("not writing the golden file from a failing run")
		}
		writeGolden(t, got)
	} else if len(got) != len(want) {
		t.Errorf("golden file has %d lines, this run produced %d (stale row?)", len(want), len(got))
	}
}

// The golden file is "# comment" header lines, one of which is
// "# goarch <GOARCH>", then "key line" rows.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	want := make(map[string]string)
	for _, l := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if arch, ok := strings.CutPrefix(l, "# goarch "); ok && arch != runtime.GOARCH {
			t.Skipf("golden results were recorded on GOARCH=%s; on %s fused multiply-add may change float bits", arch, runtime.GOARCH)
		}
		if strings.HasPrefix(l, "#") {
			continue
		}
		key, line, ok := strings.Cut(l, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", l)
		}
		want[key] = line
	}
	return want
}

func writeGolden(t *testing.T, lines []string) {
	t.Helper()
	header := "# Reference results for routing.TestGoldenResults; regenerate with\n" +
		"#   go test ./internal/routing -run TestGoldenResults -update\n" +
		"# goarch " + runtime.GOARCH + "\n"
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(header+strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}
