package experiment

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/manet"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// TestRunMatrixProgress: every completed replica emits one progress
// line with the completed/total counts, rate, and ETA.
func TestRunMatrixProgress(t *testing.T) {
	var buf bytes.Buffer
	cfgs := []manet.Config{
		{Scheme: scheme.Flooding{}, MapUnits: 1, Hosts: 10},
		{Scheme: scheme.Counter{C: 2}, MapUnits: 1, Hosts: 10},
	}
	RunMatrix(cfgs, Options{Requests: 3, Replicas: 2, Workers: 2, Progress: &buf})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d progress lines, want 4:\n%s", len(lines), buf.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "/4 replicas") || !strings.Contains(l, "events/s") || !strings.Contains(l, "ETA") {
			t.Errorf("malformed progress line %q", l)
		}
	}
	if !strings.Contains(lines[len(lines)-1], "4/4 replicas") {
		t.Errorf("last line should report completion: %q", lines[len(lines)-1])
	}
}

// TestCompareSpec: an ad-hoc comparison produces the same table shapes
// as the figure sweeps, one row per scheme.
func TestCompareSpec(t *testing.T) {
	schemes := []scheme.Scheme{scheme.Flooding{}, scheme.Counter{C: 2}}
	spec := CompareSpec(schemes)
	if spec.ID != "compare" || !strings.Contains(spec.Title, "flooding") {
		t.Fatalf("spec identity: %+v", spec)
	}
	tables := spec.Run(Options{Requests: 2, Replicas: 1, Maps: []int{1}})
	if len(tables) != 3 { // RE, SRB, latency
		t.Fatalf("got %d tables, want 3", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != len(schemes) {
			t.Errorf("table %q has %d rows, want %d", tb.Title, len(tb.Rows), len(schemes))
		}
	}
}

// TestLoadReport: rates are the sample-to-sample differences divided by
// the interval length.
func TestLoadReport(t *testing.T) {
	d := &obs.Dump{
		Meta: obs.Meta{
			Scheme: "test", Hosts: 2, MapUnits: 1,
			Series: []string{"phy.busy_radio_seconds", "phy.transmissions", "phy.deliveries", "phy.collisions"},
		},
		Samples: []obs.Sample{
			{At: 0, Values: []float64{0, 0, 0, 0}},
			{At: sim.Time(2 * sim.Second), Values: []float64{1, 10, 20, 4}},
		},
	}
	tb, err := LoadReport(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(tb.Rows))
	}
	row := tb.Rows[0]
	want := []string{"2.0", "0.500", "5.0", "10.0", "2.0"}
	for i, w := range want {
		if row[i] != w {
			t.Errorf("column %d = %q, want %q (row %v)", i, row[i], w, row)
		}
	}
}

// TestLoadReportEventCoreColumns: dumps carrying the scheduler gauges
// grow the pending-event depth and event-pool hit-rate columns, shown as
// instantaneous values rather than interval rates.
func TestLoadReportEventCoreColumns(t *testing.T) {
	d := &obs.Dump{
		Meta: obs.Meta{
			Scheme: "test", Hosts: 2, MapUnits: 1,
			Series: []string{
				"phy.busy_radio_seconds", "phy.transmissions", "phy.deliveries",
				"phy.collisions", "sim.pending_events", "sim.event_pool_hit_rate",
			},
		},
		Samples: []obs.Sample{
			{At: 0, Values: []float64{0, 0, 0, 0, 100, 0}},
			{At: sim.Time(2 * sim.Second), Values: []float64{1, 10, 20, 4, 137, 0.875}},
		},
	}
	tb, err := LoadReport(d)
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"t(s)", "busy radios", "tx/s", "deliv/s", "coll/s", "pending ev", "ev pool hit"}
	if len(tb.Columns) != len(wantCols) {
		t.Fatalf("columns = %v, want %v", tb.Columns, wantCols)
	}
	row := tb.Rows[0]
	if row[5] != "137" || row[6] != "0.875" {
		t.Errorf("event-core cells = %q, %q, want 137, 0.875 (row %v)", row[5], row[6], row)
	}
}

// TestLoadReportBorderShareColumn: dumps recorded on the sharded engine
// carry the border-lane share gauge and grow its column; sequential
// dumps (no engine.* series) keep the old shape.
func TestLoadReportBorderShareColumn(t *testing.T) {
	d := &obs.Dump{
		Meta: obs.Meta{
			Scheme: "test", Hosts: 2, MapUnits: 1,
			Series: []string{
				"phy.busy_radio_seconds", "phy.transmissions", "phy.deliveries",
				"phy.collisions", "engine.border_share",
			},
		},
		Samples: []obs.Sample{
			{At: 0, Values: []float64{0, 0, 0, 0, 0}},
			{At: sim.Time(2 * sim.Second), Values: []float64{1, 10, 20, 4, 0.912}},
		},
	}
	tb, err := LoadReport(d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tb.Columns[len(tb.Columns)-1], "border share"; got != want {
		t.Fatalf("last column = %q, want %q (columns %v)", got, want, tb.Columns)
	}
	row := tb.Rows[0]
	if row[len(row)-1] != "0.912" {
		t.Errorf("border-share cell = %q, want 0.912 (row %v)", row[len(row)-1], row)
	}
}

// TestLoadReportRejectsMissingSeries: a dump without the phy series
// errors instead of reporting zeros.
func TestLoadReportRejectsMissingSeries(t *testing.T) {
	d := &obs.Dump{Meta: obs.Meta{Series: []string{"phy.transmissions"}}}
	if _, err := LoadReport(d); err == nil {
		t.Fatal("missing series accepted")
	}
}
