package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
	id := c.Counter("x")
	c.Inc(id)
	c.Gauge("g", func() float64 { t.Fatal("gauge called on nil collector"); return 0 })
	c.Sample(sim.Time(1))
	if c.Tick() != 0 {
		t.Errorf("nil Tick = %v, want 0", c.Tick())
	}
	if got := c.Samples(); got != nil {
		t.Errorf("nil Samples = %v, want nil", got)
	}
	if got := c.SeriesNames(); got != nil {
		t.Errorf("nil SeriesNames = %v, want nil", got)
	}
}

func TestCollectorCountersAndGauges(t *testing.T) {
	c := New(0)
	if c.Tick() != DefaultTick {
		t.Fatalf("Tick = %v, want DefaultTick %v", c.Tick(), DefaultTick)
	}
	a := c.Counter("a")
	b := c.Counter("b")
	if again := c.Counter("a"); again != a {
		t.Fatalf("re-registering a counter returned a new id: %d vs %d", again, a)
	}
	g := 1.5
	c.Gauge("g", func() float64 { return g })

	for range 3 {
		c.Inc(a)
	}
	c.Inc(b)
	c.Sample(sim.Time(100))
	c.Inc(a)
	g = 2.5
	c.Sample(sim.Time(200))

	wantNames := []string{"a", "b", "g"}
	if got := c.SeriesNames(); !reflect.DeepEqual(got, wantNames) {
		t.Errorf("SeriesNames = %v, want %v", got, wantNames)
	}
	want := []Sample{
		{At: 100, Values: []float64{3, 1, 1.5}},
		{At: 200, Values: []float64{4, 1, 2.5}},
	}
	if got := c.Samples(); !reflect.DeepEqual(got, want) {
		t.Errorf("Samples = %v, want %v", got, want)
	}
}

func TestSampleCoalescesSameInstant(t *testing.T) {
	c := New(sim.Second)
	a := c.Counter("a")
	c.Inc(a)
	c.Sample(sim.Time(500))
	c.Inc(a)
	c.Sample(sim.Time(500)) // end-of-run sample at the same instant
	got := c.Samples()
	if len(got) != 1 {
		t.Fatalf("got %d samples, want 1 (coalesced)", len(got))
	}
	if got[0].Values[0] != 2 {
		t.Errorf("coalesced value = %v, want 2 (later sample wins)", got[0].Values[0])
	}
}

func TestMergeCounters(t *testing.T) {
	m := MergeCounters(
		map[string]int64{"a": 1, "b": 2},
		map[string]int64{"b": 3, "c": 4},
		nil,
	)
	want := map[string]int64{"a": 1, "b": 5, "c": 4}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("MergeCounters = %v, want %v", m, want)
	}
	if got := MergedNames(m); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("MergedNames = %v", got)
	}
}

// syntheticExport builds an export from hand-written collector state and
// events — deliberately not from a simulation, so the golden file pins
// the wire schema without churning when the model changes.
func syntheticExport(t *testing.T) []byte {
	t.Helper()
	c := New(50 * sim.Millisecond)
	tx := c.Counter("scheme.proceed_initial")
	inh := c.Counter("scheme.inhibit_duplicate")
	busy := 0.0
	c.Gauge("phy.busy_radio_seconds", func() float64 { return busy })

	c.Inc(tx)
	busy = 0.0125
	c.Sample(sim.Time(50 * sim.Millisecond))
	c.Inc(tx)
	c.Inc(tx)
	c.Inc(inh)
	busy = 0.0500
	c.Sample(sim.Time(100 * sim.Millisecond))

	events := []trace.Event{
		{At: sim.Time(10 * sim.Millisecond), Kind: trace.Originate, Broadcast: packet.BroadcastID{Source: 3, Seq: 1}, Host: 3},
		{At: sim.Time(12 * sim.Millisecond), Kind: trace.Deliver, Broadcast: packet.BroadcastID{Source: 3, Seq: 1}, Host: 7},
		{At: sim.Time(14 * sim.Millisecond), Kind: trace.Inhibit, Broadcast: packet.BroadcastID{Source: 3, Seq: 1}, Host: 9},
	}
	meta := Meta{Scheme: "counter:c=3", Hosts: 20, MapUnits: 5, Seed: 42}
	var buf bytes.Buffer
	if err := Export(&buf, meta, c, events); err != nil {
		t.Fatalf("Export: %v", err)
	}
	return buf.Bytes()
}

// TestExportGolden pins the JSONL wire schema (version, field names,
// line ordering). A diff here means the schema changed: bump
// trace.JSONLVersion and update DESIGN.md before refreshing the golden
// file with -update.
func TestExportGolden(t *testing.T) {
	got := syntheticExport(t)
	golden := filepath.Join("testdata", "export_v1.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("export differs from golden schema v%d:\n got:\n%s\nwant:\n%s",
			trace.JSONLVersion, got, want)
	}
}

func TestExportDecodeRoundTrip(t *testing.T) {
	raw := syntheticExport(t)
	d, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if d.Meta.V != trace.JSONLVersion || d.Meta.Scheme != "counter:c=3" ||
		d.Meta.Hosts != 20 || d.Meta.Seed != 42 || d.Meta.TickUS != int64(50*sim.Millisecond) {
		t.Errorf("meta round-trip mismatch: %+v", d.Meta)
	}
	wantSeries := []string{"scheme.proceed_initial", "scheme.inhibit_duplicate", "phy.busy_radio_seconds"}
	if !reflect.DeepEqual(d.Meta.Series, wantSeries) {
		t.Errorf("series = %v, want %v", d.Meta.Series, wantSeries)
	}
	wantSamples := []Sample{
		{At: sim.Time(50 * sim.Millisecond), Values: []float64{1, 0, 0.0125}},
		{At: sim.Time(100 * sim.Millisecond), Values: []float64{3, 1, 0.05}},
	}
	if !reflect.DeepEqual(d.Samples, wantSamples) {
		t.Errorf("samples = %v, want %v", d.Samples, wantSamples)
	}
	if len(d.Events) != 3 || d.Events[1].Kind != trace.Deliver || d.Events[1].Host != 7 {
		t.Errorf("events round-trip mismatch: %+v", d.Events)
	}
}

func TestDecodeRejectsBadStreams(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"wrong version", `{"v":99,"type":"meta","series":[]}`, "schema version"},
		{"no meta", `{"v":1,"type":"sample","t_us":1,"values":[]}`, "sample before meta"},
		{"width mismatch", `{"v":1,"type":"meta","series":["a"]}` + "\n" +
			`{"v":1,"type":"sample","t_us":1,"values":[1,2]}`, "declares"},
		{"duplicate meta", `{"v":1,"type":"meta","series":[]}` + "\n" +
			`{"v":1,"type":"meta","series":[]}`, "duplicate meta"},
		{"empty", ``, "no meta"},
		{"garbage", `not json`, "invalid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Decode(%q) err = %v, want containing %q", tc.in, err, tc.want)
			}
		})
	}
}

func TestDecodeSkipsUnknownTypes(t *testing.T) {
	in := `{"v":1,"type":"meta","series":[]}` + "\n" +
		`{"v":1,"type":"future_record","payload":true}`
	d, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(d.Samples) != 0 || len(d.Events) != 0 {
		t.Errorf("unexpected decoded content: %+v", d)
	}
}

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatalf("StartProfiles: %v", err)
	}
	for i := 0; i < 1000; i++ {
		_ = make([]byte, 1024)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("stat %s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
	// Both paths empty: a no-op that must still succeed.
	stop, err = StartProfiles("", "")
	if err != nil {
		t.Fatalf("StartProfiles(empty): %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop(empty): %v", err)
	}
}
