package obs_test

import (
	"fmt"
	"testing"

	"repro/internal/manet"
	"repro/internal/obs"
	"repro/internal/scheme"
)

// matrixConfig is the audited matrix's base configuration: large enough
// for real contention, collisions, and neighbor churn, small enough that
// thirty audited runs stay inside a normal test budget.
func matrixConfig(sc scheme.Scheme, static bool, seed uint64) manet.Config {
	return manet.Config{
		MapUnits: 3,
		Hosts:    40,
		Requests: 10,
		Scheme:   sc,
		Static:   static,
		Seed:     seed,
	}
}

func runAudited(t *testing.T, cfg manet.Config) *obs.Auditor {
	t.Helper()
	a := obs.NewAuditor()
	cfg.Audit = a
	n, err := manet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if !a.SummaryChecked() {
		t.Fatal("end-of-run summary reconciliation did not run")
	}
	return a
}

// TestMatrixAudited runs the invariant auditor over the full 5-scheme x
// 3-seed x {static, mobile} matrix and requires zero violations. This is
// the standing safety net for the zero-allocation event core: any pool
// misuse, dropped reception copy, scheduler ordering break, or stale
// neighbor entry in any scheme surfaces here.
func TestMatrixAudited(t *testing.T) {
	schemes := []scheme.Scheme{
		scheme.Flooding{},
		scheme.Counter{C: 3},
		scheme.Location{A: 0.0469},
		scheme.AdaptiveCounter{},
		scheme.NeighborCoverage{},
	}
	for _, sc := range schemes {
		for _, static := range []bool{false, true} {
			for seed := uint64(1); seed <= 3; seed++ {
				sc, static, seed := sc, static, seed
				name := fmt.Sprintf("%s/static=%v/seed=%d", sc.Name(), static, seed)
				t.Run(name, func(t *testing.T) {
					runAudited(t, matrixConfig(sc, static, seed))
				})
			}
		}
	}
}

// TestMatrixAuditedVariants extends the matrix across the simulator's
// feature switches, so every invariant is also exercised under the loss
// model, the capture effect, the repair extension, dynamic HELLO,
// waypoint mobility, and the ideal-HELLO ablation.
func TestMatrixAuditedVariants(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*manet.Config)
	}{
		{"loss", func(c *manet.Config) { c.LossRate = 0.2 }},
		{"capture", func(c *manet.Config) { c.CaptureRatio = 10 }},
		{"no-collisions", func(c *manet.Config) { c.DisableCollisions = true }},
		{"repair", func(c *manet.Config) { c.Repair = true }},
		{"dynamic-hello", func(c *manet.Config) { c.HelloMode = manet.HelloDynamic }},
		{"waypoint", func(c *manet.Config) { c.Mobility = manet.MobilityWaypoint }},
		{"ideal-hello", func(c *manet.Config) { c.IdealHello = true }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := matrixConfig(scheme.AdaptiveCounter{}, false, 1)
			v.mutate(&cfg)
			runAudited(t, cfg)
		})
	}
}
