package experiment

import (
	"strings"
	"testing"

	"repro/internal/manet"
	"repro/internal/scheme"
)

// tinyOptions keeps test sweeps fast.
func tinyOptions() Options {
	return Options{
		Hosts:    20,
		Requests: 6,
		Replicas: 1,
		Maps:     []int{1, 5},
		Speeds:   []float64{20, 60},
		HelloIntervalsMS: []int{
			1000, 10000,
		},
		Trials: 300,
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("figX", "demo", "a", "b")
	tab.AddRow("1", "2")
	tab.AddRow("long-cell", "3")
	text := tab.Text()
	if !strings.Contains(text, "figX — demo") || !strings.Contains(text, "long-cell") {
		t.Errorf("text rendering missing pieces:\n%s", text)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,b\n") || !strings.Contains(csv, "1,2\n") {
		t.Errorf("csv rendering wrong:\n%s", csv)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tab := NewTable("figX", "demo", "a")
	tab.AddRow(`va"l,ue`)
	csv := tab.CSV()
	if !strings.Contains(csv, `"va""l,ue"`) {
		t.Errorf("quoting wrong: %s", csv)
	}
}

func TestTableRowArityPanics(t *testing.T) {
	tab := NewTable("figX", "demo", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("mismatched row did not panic")
		}
	}()
	tab.AddRow("only-one")
}

func TestRunMatrixOrderAndDeterminism(t *testing.T) {
	cfgs := []manet.Config{
		{Scheme: scheme.Flooding{}, MapUnits: 1},
		{Scheme: scheme.Counter{C: 2}, MapUnits: 1},
	}
	o := tinyOptions()
	a := RunMatrix(cfgs, o)
	b := RunMatrix(cfgs, o)
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("got %d/%d summaries", len(a), len(b))
	}
	for i := range a {
		if a[i].MeanRE != b[i].MeanRE || a[i].Transmissions != b[i].Transmissions {
			t.Errorf("matrix point %d not deterministic", i)
		}
	}
	// Flooding must have SRB 0, the counter scheme more than 0 in a
	// dense 1x1 map.
	if a[0].MeanSRB != 0 {
		t.Errorf("flooding SRB = %v", a[0].MeanSRB)
	}
	if a[1].MeanSRB <= 0 {
		t.Errorf("counter SRB = %v, want > 0 in dense map", a[1].MeanSRB)
	}
}

func TestRunMatrixMergesReplicas(t *testing.T) {
	o := tinyOptions()
	o.Replicas = 3
	sums := RunMatrix([]manet.Config{{Scheme: scheme.Flooding{}, MapUnits: 1}}, o)
	if sums[0].Broadcasts != 3*o.Requests {
		t.Errorf("merged broadcasts = %d, want %d", sums[0].Broadcasts, 3*o.Requests)
	}
}

func TestRegistryCoversAllFigures(t *testing.T) {
	want := []string{"constants", "fig1", "fig2", "fig5a", "fig5b", "fig5c", "fig5d",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d specs, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("spec %d = %s, want %s", i, reg[i].ID, id)
		}
		if reg[i].Title == "" || reg[i].Paper == "" || reg[i].Run == nil {
			t.Errorf("spec %s incomplete", id)
		}
	}
	if _, ok := LookupAny("fig7"); !ok {
		t.Error("LookupAny(fig7) failed")
	}
	if _, ok := LookupAny("nope"); ok {
		t.Error("LookupAny(nope) succeeded")
	}
}

func TestFig1SmallRun(t *testing.T) {
	tables := runFig1(tinyOptions())
	if len(tables) != 1 {
		t.Fatalf("fig1 returned %d tables", len(tables))
	}
	if got := len(tables[0].Rows); got != 10 {
		t.Errorf("fig1 rows = %d, want 10 (k=1..10)", got)
	}
}

func TestFig2SmallRun(t *testing.T) {
	tables := runFig2(tinyOptions())
	if len(tables) != 1 || len(tables[0].Rows) != 10 {
		t.Fatalf("fig2 shape wrong")
	}
}

// TestEverySimFigureRunsTiny renders every figure, and a compare spec,
// at a tiny scale and holds the text of each table to
// testdata/tables.golden.
func TestEverySimFigureRunsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation figures are slow in -short mode")
	}
	specs := append(Registry(), CompareSpec([]scheme.Scheme{scheme.Flooding{}, scheme.AdaptiveCounter{}}))
	checkTables(t, "figures", specs)
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Hosts != 100 || o.Requests == 0 || o.Replicas == 0 || o.Workers < 1 {
		t.Errorf("defaults incomplete: %+v", o)
	}
	if len(o.Maps) != 6 || o.Maps[0] != 1 || o.Maps[5] != 11 {
		t.Errorf("default maps wrong: %v", o.Maps)
	}
}

func TestAblationRegistry(t *testing.T) {
	abls := Ablations()
	if len(abls) != 12 {
		t.Fatalf("ablation count = %d", len(abls))
	}
	for _, s := range abls {
		if s.ID == "" || s.Run == nil || s.Title == "" {
			t.Errorf("incomplete ablation %+v", s.ID)
		}
		if _, ok := LookupAny(s.ID); !ok {
			t.Errorf("LookupAny misses %s", s.ID)
		}
	}
	if _, ok := LookupAny("fig1"); !ok {
		t.Error("LookupAny misses figures")
	}
}

// TestEveryAblationRunsTiny renders every ablation at a tiny scale and
// holds the text of each table to testdata/tables.golden.
func TestEveryAblationRunsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short mode")
	}
	checkTables(t, "ablations", Ablations())
}

// TestRunMatrixParallelismInvariant: results must be identical whatever
// the worker count — parallelism is at the replica level only.
func TestRunMatrixParallelismInvariant(t *testing.T) {
	cfgs := []manet.Config{
		{Scheme: scheme.Flooding{}, MapUnits: 1},
		{Scheme: scheme.AdaptiveCounter{}, MapUnits: 5},
		{Scheme: scheme.NeighborCoverage{}, MapUnits: 5},
	}
	seq := tinyOptions()
	seq.Workers = 1
	par := tinyOptions()
	par.Workers = 4
	a := RunMatrix(cfgs, seq)
	b := RunMatrix(cfgs, par)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d differs between 1 and 4 workers", i)
		}
	}
}
