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
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
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
	// A counter is a gauge reading an integer its owner bumps.
	var a, b int
	c.Gauge("a", func() float64 { return float64(a) })
	c.Gauge("b", func() float64 { return float64(b) })
	g := 1.5
	c.Gauge("g", func() float64 { return g })

	a += 3
	b++
	c.Sample(sim.Time(100))
	a++
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
	a := 0
	c.Gauge("a", func() float64 { return float64(a) })
	a++
	c.Sample(sim.Time(500))
	a++
	c.Sample(sim.Time(500)) // end-of-run sample at the same instant
	got := c.Samples()
	if len(got) != 1 {
		t.Fatalf("got %d samples, want 1 (coalesced)", len(got))
	}
	if got[0].Values[0] != 2 {
		t.Errorf("coalesced value = %v, want 2 (later sample wins)", got[0].Values[0])
	}
}

// syntheticExport builds an export from hand-written collector state and
// events — deliberately not from a simulation, so the golden file pins
// the wire schema without churning when the model changes.
func syntheticExport(t *testing.T) []byte {
	t.Helper()
	c := New(50 * sim.Millisecond)
	var tx, inh int
	c.Gauge("scheme.proceed_initial", func() float64 { return float64(tx) })
	c.Gauge("scheme.inhibit_duplicate", func() float64 { return float64(inh) })
	busy := 0.0
	c.Gauge("phy.busy_radio_seconds", func() float64 { return busy })

	tx++
	busy = 0.0125
	c.Sample(sim.Time(50 * sim.Millisecond))
	tx += 2
	inh++
	busy = 0.0500
	c.Sample(sim.Time(100 * sim.Millisecond))

	events := []Event{
		{At: sim.Time(10 * sim.Millisecond), Kind: Originate, Broadcast: packet.BroadcastID{Source: 3, Seq: 1}, Host: 3},
		{At: sim.Time(12 * sim.Millisecond), Kind: Deliver, Broadcast: packet.BroadcastID{Source: 3, Seq: 1}, Host: 7},
		{At: sim.Time(14 * sim.Millisecond), Kind: Inhibit, Broadcast: packet.BroadcastID{Source: 3, Seq: 1}, Host: 9},
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
// jsonlVersion and update DESIGN.md before refreshing the golden
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
			jsonlVersion, got, want)
	}
}

func TestExportDecodeRoundTrip(t *testing.T) {
	raw := syntheticExport(t)
	d, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if d.Meta.V != jsonlVersion || d.Meta.Scheme != "counter:c=3" ||
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
	if len(d.Events) != 3 || d.Events[1].Kind != Deliver || d.Events[1].Host != 7 {
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
		{"event before meta", `{"v":1,"type":"event","t_us":1,"kind":"deliver","src":1,"seq":1,"host":2}`, "event before meta"},
		{"wrong event version", `{"v":1,"type":"meta","series":[]}` + "\n" +
			`{"v":999,"type":"event","t_us":1,"kind":"deliver","src":1,"seq":1,"host":2}`, "schema version"},
		{"unknown kind", `{"v":1,"type":"meta","series":[]}` + "\n" +
			`{"v":1,"type":"event","t_us":1,"kind":"teleport","src":1,"seq":1,"host":2}`, "unknown event kind"},
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

// TestDecodeMixedStream: meta, sample and event lines interleave in
// one stream, and each lands in its own place, so a reader after just
// the events reads a full telemetry export.
func TestDecodeMixedStream(t *testing.T) {
	in := `{"v":1,"type":"meta","series":[]}
{"v":1,"type":"sample","t_us":5,"values":[]}
{"v":1,"type":"event","t_us":7,"kind":"transmit","src":3,"seq":9,"host":4}
`
	d, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Samples) != 1 || d.Samples[0].At != 5 {
		t.Errorf("decoded samples %+v", d.Samples)
	}
	want := Event{At: 7, Kind: Transmit, Broadcast: packet.BroadcastID{Source: 3, Seq: 9}, Host: 4}
	if len(d.Events) != 1 || d.Events[0] != want {
		t.Fatalf("decoded events %+v, want [%+v]", d.Events, want)
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
