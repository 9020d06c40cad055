package manet

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/scheme"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/summaries.golden from this tree")

const goldenPath = "testdata/summaries.golden"

// goldenRows is the union of the config tables of the live-oracle
// equivalence tests this file replaced (grid vs linear scan, localized
// vs global interference, ladder vs heap, dense vs map state, and the
// storm facade's base config). Each runs at seeds 1-3.
var goldenRows = []struct {
	name string
	cfg  Config
}{
	{"flooding-mobile", Config{
		Scheme: scheme.Flooding{}, MapUnits: 3, Hosts: 40, Requests: 12,
	}},
	{"adaptive-counter-hello", Config{
		Scheme: scheme.AdaptiveCounter{}, MapUnits: 5, Hosts: 50, Requests: 12,
	}},
	{"location-waypoint", Config{
		Scheme: scheme.AdaptiveLocation{}, MapUnits: 5, Hosts: 40, Requests: 10,
		Mobility: MobilityWaypoint,
	}},
	{"counter-loss-capture", Config{
		Scheme: scheme.Counter{C: 3}, MapUnits: 3, Hosts: 40, Requests: 12,
		LossRate: 0.1, CaptureRatio: 4,
	}},
	{"flooding-static-dense", Config{
		Scheme: scheme.Flooding{}, MapUnits: 1, Hosts: 60, Requests: 10,
		Static: true,
	}},
	{"repair-dynamic-hello", Config{
		Scheme: scheme.AdaptiveCounter{}, MapUnits: 5, Hosts: 30, Requests: 8,
		HelloMode: HelloDynamic, Repair: true, Warmup: 5 * sim.Second,
	}},
	{"counter-capture", Config{
		Scheme: scheme.Counter{C: 3}, MapUnits: 3, Hosts: 40, Requests: 12,
		CaptureRatio: 4,
	}},
	{"adaptive-counter-loss", Config{
		Scheme: scheme.AdaptiveCounter{}, MapUnits: 5, Hosts: 50, Requests: 12,
		LossRate: 0.1,
	}},
	{"location-waypoint-capture", Config{
		Scheme: scheme.AdaptiveLocation{}, MapUnits: 5, Hosts: 40, Requests: 10,
		Mobility: MobilityWaypoint, CaptureRatio: 10,
	}},
	{"neighbor-coverage-repair", Config{
		Scheme: scheme.NeighborCoverage{}, MapUnits: 3, Hosts: 30, Requests: 8,
		Repair: true, HelloMode: HelloDynamic, Warmup: 5 * sim.Second,
	}},
	{"adaptive-counter-3x3", goldenRecordsConfig},
}

// goldenRecordsConfig at goldenRecordsSeed is the row whose per-broadcast
// Records() are golden lines too, recorded from the map-backed
// bookkeeping.
var goldenRecordsConfig = Config{
	Scheme: scheme.AdaptiveCounter{}, MapUnits: 3, Hosts: 40, Requests: 10,
}

const goldenRecordsSeed = 5

// TestGoldenSummaries pins the Summary of every goldenRows config to the
// line committed in testdata/summaries.golden. The file was recorded at
// 30b7406 in a run that asserted the default and every combination of
// the four data-structure oracles that tree still carried (linear-scan
// channel, global-scan interference, heap scheduler, map-backed state)
// printed the identical line; those paths are deleted and the file is
// the reference now. Lines are fmt's %+v, whose shortest-round-trip
// floats make text equality bit equality and a diff readable.
//
// One differential needs no oracle and stays live: with RetainRecords
// nothing folds mid-run, and the summary must not notice.
func TestGoldenSummaries(t *testing.T) {
	var want map[string]string
	if !*update {
		want = readGolden(t)
	}
	var got []string
	emit := func(key, line string) {
		got = append(got, key+" "+line)
		if want == nil {
			return
		}
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no golden line (run with -update to add it)", key)
		} else if w != line {
			t.Errorf("%s diverges from golden:\n got: %s\nwant: %s", key, line, w)
		}
	}
	runRow := func(name string, cfg Config, seed uint64, records bool) {
		key := fmt.Sprintf("%s/seed=%d", name, seed)
		cfg.Seed = seed
		line := fmt.Sprintf("%+v", mustNew(t, cfg).Run())
		emit(key, line)

		cfg.RetainRecords = true
		rn := mustNew(t, cfg)
		if retained := fmt.Sprintf("%+v", rn.Run()); retained != line {
			t.Errorf("%s: RetainRecords changes the summary:\nretained: %s\n  folded: %s", key, retained, line)
		}
		if records {
			for i, rec := range rn.Records() {
				emit(fmt.Sprintf("%s/record=%d", key, i), fmt.Sprintf("%+v", *rec))
			}
		}
	}
	for _, row := range goldenRows {
		for seed := uint64(1); seed <= 3; seed++ {
			runRow(row.name, row.cfg, seed, false)
		}
	}
	runRow("adaptive-counter-3x3", goldenRecordsConfig, goldenRecordsSeed, true)

	if *update {
		if t.Failed() {
			t.Fatal("not writing the golden file from a failing run")
		}
		writeGolden(t, got)
	} else if len(got) != len(want) {
		t.Errorf("golden file has %d lines, this run produced %d (stale row?)", len(want), len(got))
	}
}

func mustNew(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
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
			t.Skipf("golden summaries were recorded on GOARCH=%s; on %s fused multiply-add may change float bits", arch, runtime.GOARCH)
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
	header := "# Reference summaries for manet.TestGoldenSummaries; regenerate with\n" +
		"#   go test ./internal/manet -run TestGoldenSummaries -update\n" +
		"# goarch " + runtime.GOARCH + "\n"
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(header+strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}
