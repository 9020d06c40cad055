package manet

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// Telemetry must be pure observation: for a fixed seed, an instrumented
// run (collector sampling on a fine tick, plus progress output) must
// produce a Summary identical field for field — same deliveries, same
// latencies, same event count — to an uninstrumented run. Any divergence
// means sampling perturbed the simulation (scheduled an event, drew a
// random number, or mutated model state).
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"flooding-mobile", Config{
			Scheme: scheme.Flooding{}, MapUnits: 3, Hosts: 40, Requests: 12,
		}},
		{"adaptive-counter-hello", Config{
			Scheme: scheme.AdaptiveCounter{}, MapUnits: 5, Hosts: 50, Requests: 12,
		}},
		{"counter-loss-capture", Config{
			Scheme: scheme.Counter{C: 3}, MapUnits: 3, Hosts: 40, Requests: 12,
			LossRate: 0.1, CaptureRatio: 4,
		}},
		{"repair-dynamic-hello", Config{
			Scheme: scheme.AdaptiveCounter{}, MapUnits: 5, Hosts: 30, Requests: 8,
			HelloMode: HelloDynamic, Repair: true, Warmup: 5 * sim.Second,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				plain := tc.cfg
				plain.Seed = seed
				instr := tc.cfg
				instr.Seed = seed
				instr.Telemetry = obs.New(10 * sim.Millisecond)

				pn, err := New(plain)
				if err != nil {
					t.Fatal(err)
				}
				in, err := New(instr)
				if err != nil {
					t.Fatal(err)
				}
				in.Progress = io.Discard
				ps, is := pn.Run(), in.Run()
				if ps != is {
					t.Fatalf("seed %d: telemetry changed the summary:\nplain:        %+v\ninstrumented: %+v", seed, ps, is)
				}

				// The run above must actually have observed something,
				// or the equivalence proves nothing.
				c := instr.Telemetry
				if len(c.Samples()) == 0 {
					t.Fatal("instrumented run recorded no samples")
				}
				if v := lastValue(t, c, "scheme.proceed_initial"); v == 0 {
					t.Errorf("scheme.proceed_initial final sample = %g, want nonzero", v)
				}
				if busy := lastValue(t, c, "phy.busy_radio_seconds"); busy <= 0 {
					t.Errorf("phy.busy_radio_seconds final sample = %g, want > 0", busy)
				}
				if tx := lastValue(t, c, "phy.transmissions"); int(tx) != is.Transmissions {
					t.Errorf("phy.transmissions final sample = %g, summary says %d", tx, is.Transmissions)
				}
			}
		})
	}
}

// lastValue reads a named series' value in the final sample.
func lastValue(t *testing.T, c *obs.Collector, name string) float64 {
	t.Helper()
	names := c.SeriesNames()
	for i, n := range names {
		if n == name {
			ss := c.Samples()
			return ss[len(ss)-1].Values[i]
		}
	}
	t.Fatalf("series %q not registered (have %v)", name, names)
	return 0
}

// TestTelemetrySeriesPinned pins one small sharded run's series list
// and its four scheme-decision counts at the end. The list is the JSONL
// column order, so a change to how a layer registers its series —
// the scheme.* counts must come first — shows here, not as a silently
// reordered export.
func TestTelemetrySeriesPinned(t *testing.T) {
	c := obs.New(0)
	n, err := New(Config{
		Scheme: scheme.AdaptiveCounter{}, MapUnits: 3, Hosts: 40, Requests: 10, Seed: 2,
		Engine: EngineSharded, Shards: 2, Telemetry: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	want := []string{
		"scheme.proceed_initial", "scheme.inhibit_initial", "scheme.proceed_duplicate", "scheme.inhibit_duplicate",
		"sim.pending_events", "sim.event_pool_hit_rate", "mac.backoff_stalls", "manet.hello_sent", "manet.broadcasts",
		"engine.barriers", "engine.border_share", "engine.shard0_executed", "engine.shard1_executed",
		"phy.busy_radio_seconds", "phy.active_transmissions", "phy.transmissions", "phy.deliveries", "phy.collisions",
		"phy.lost", "phy.tx_pool_hit_rate", "phy.nbr_memo_hit_rate",
	}
	if got := c.SeriesNames(); !slices.Equal(got, want) {
		t.Fatalf("series list changed:\n got: %q\nwant: %q", got, want)
	}
	ss := c.Samples()
	if got, want := ss[len(ss)-1].Values[:4], []float64{384, 0, 174, 137}; !slices.Equal(got, want) {
		t.Errorf("final scheme decision counts = %v, want %v", got, want)
	}
}

// TestShardedTelemetryReproducible: two exports of one sharded run
// (stormsim -scheme nc -hello dynamic -map 5 -engine sharded -shards 2)
// are byte-identical, so no series may read the wall clock, as a
// barrier-wait gauge once did.
func TestShardedTelemetryReproducible(t *testing.T) {
	export := func() []byte {
		c := obs.New(100 * sim.Millisecond)
		n, err := New(Config{
			Scheme: scheme.NeighborCoverage{}, HelloMode: HelloDynamic, MapUnits: 5, Hosts: 100,
			Requests: 100, Seed: 1, Engine: EngineSharded, Shards: 2, Telemetry: c,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder()
		n.Tracer = rec
		n.Run()
		if n.ParallelStats().Barriers == 0 {
			t.Fatal("the sharded run crossed no barrier, so it proves nothing")
		}
		var buf bytes.Buffer
		if err := obs.Export(&buf, obs.Meta{Hosts: 100, MapUnits: 5, Seed: 1}, c, rec.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := export(), export(); !bytes.Equal(a, b) {
		la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
		for i := range min(len(la), len(lb)) {
			if la[i] != lb[i] {
				t.Fatalf("exports differ at line %d:\n%s\n%s", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("exports differ in length: %d and %d lines", len(la), len(lb))
	}
}

func TestProgressOutput(t *testing.T) {
	var buf strings.Builder
	n, err := New(Config{
		Scheme: scheme.Flooding{}, MapUnits: 3, Hosts: 30, Requests: 10, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Progress = &buf
	n.Run()
	out := buf.String()
	if !strings.Contains(out, "sim t=") || !strings.Contains(out, "events=") {
		t.Errorf("progress output missing expected fields:\n%s", out)
	}
	if strings.Count(out, "\n") < 2 {
		t.Errorf("expected multiple progress lines over a multi-second run, got:\n%s", out)
	}
}

func TestValidateRejectsBadRates(t *testing.T) {
	base := Config{Scheme: scheme.Flooding{}}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative loss", func(c *Config) { c.LossRate = -0.1 }, "loss rate"},
		{"loss of one", func(c *Config) { c.LossRate = 1.0 }, "loss rate"},
		{"loss above one", func(c *Config) { c.LossRate = 1.5 }, "loss rate"},
		{"capture at one", func(c *Config) { c.CaptureRatio = 1.0 }, "capture ratio"},
		{"capture below one", func(c *Config) { c.CaptureRatio = 0.5 }, "capture ratio"},
		{"negative capture", func(c *Config) { c.CaptureRatio = -2 }, "capture ratio"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			err := cfg.WithDefaults().Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want error containing %q", err, tc.want)
			}
			if _, err := New(cfg); err == nil {
				t.Error("New accepted the invalid config")
			}
		})
	}
	// Boundary values that must stay accepted.
	ok := base
	ok.LossRate = 0.99
	ok.CaptureRatio = 1.01
	if err := ok.WithDefaults().Validate(); err != nil {
		t.Errorf("Validate rejected in-contract values: %v", err)
	}
}
