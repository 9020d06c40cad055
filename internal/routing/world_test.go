package routing

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/manet"
	"repro/internal/obs"
	"repro/internal/scheme"
)

// Route discovery runs on the manet world, so it inherits what that
// world offers and refuses what it cannot describe.

func TestAuditedRouteRunIsClean(t *testing.T) {
	cfg := Config{
		Hosts: 60, MapUnits: 5, Scheme: scheme.AdaptiveCounter{},
		Discoveries: 15, RingTTLs: []int{2, 0}, DataPerRoute: 5, Seed: 7,
	}.WithDefaults()
	wcfg := cfg.world()
	audit := obs.NewAuditor()
	wcfg.Audit = audit
	n, err := newNetwork(cfg, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	r := n.Run()
	if r.RingEscalations == 0 || r.DataSent == 0 {
		t.Fatalf("run exercised neither rings nor data: %+v", r)
	}
	if !audit.SummaryChecked() {
		t.Error("end-of-run reconciliation never ran")
	}
	if err := audit.Err(); err != nil {
		t.Error(err)
	}
}

func TestCheckpointRefused(t *testing.T) {
	n, err := New(Config{Hosts: 10, MapUnits: 1, Discoveries: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.world.Close()
	if err := n.world.Checkpoint(io.Discard); err == nil {
		t.Error("checkpoint of a route-discovery world accepted")
	}
}

// TestShardedMatchesGolden runs every golden config on the sharded
// engine: its results must equal the sequential ones byte for byte.
func TestShardedMatchesGolden(t *testing.T) {
	want := readGolden(t)
	for _, row := range goldenRows {
		cfg := row.cfg.WithDefaults()
		wcfg := cfg.world()
		wcfg.Engine = manet.EngineSharded
		n, err := newNetwork(cfg, wcfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%+v", n.Run()); got != want[row.name] {
			t.Errorf("%s: sharded engine diverges from golden:\n got: %s\nwant: %s", row.name, got, want[row.name])
		}
	}
}
