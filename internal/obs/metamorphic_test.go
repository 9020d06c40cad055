package obs_test

import (
	"math"
	"testing"

	"repro/internal/manet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/scheme"
)

// The metamorphic layer encodes identities the paper's scheme
// definitions imply. Each is an exact equality on metrics.Summary: the
// scheme judges draw no random numbers (the per-reception uniform draw
// happens in the host layer for every scheme), so two schemes that make
// identical decisions produce identical event streams.

func runSummary(t *testing.T, cfg manet.Config) metrics.Summary {
	t.Helper()
	n, err := manet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n.Run()
}

// TestCounterInfinityEqualsFlooding: a counter threshold no reception
// count can reach never inhibits, which is flooding by definition.
func TestCounterInfinityEqualsFlooding(t *testing.T) {
	for _, static := range []bool{false, true} {
		for seed := uint64(1); seed <= 2; seed++ {
			flood := runSummary(t, matrixConfig(scheme.Flooding{}, static, seed))
			inf := runSummary(t, matrixConfig(scheme.Counter{C: math.MaxInt32}, static, seed))
			if flood != inf {
				t.Errorf("static=%v seed=%d:\n flooding %+v\n counter  %+v", static, seed, flood, inf)
			}
		}
	}
}

// TestLocationZeroEqualsFlooding: with threshold A=0 no additional-
// coverage estimate can fall below it, so the location scheme never
// inhibits either.
func TestLocationZeroEqualsFlooding(t *testing.T) {
	for _, static := range []bool{false, true} {
		for seed := uint64(1); seed <= 2; seed++ {
			flood := runSummary(t, matrixConfig(scheme.Flooding{}, static, seed))
			loc := runSummary(t, matrixConfig(scheme.Location{A: 0}, static, seed))
			if flood != loc {
				t.Errorf("static=%v seed=%d:\n flooding %+v\n location %+v", static, seed, flood, loc)
			}
		}
	}
}

// TestSeedDeterminism: the same configuration and seed reproduce the
// summary exactly; a different seed produces a different workload.
func TestSeedDeterminism(t *testing.T) {
	for _, sc := range []scheme.Scheme{scheme.Flooding{}, scheme.AdaptiveCounter{}} {
		a := runSummary(t, matrixConfig(sc, false, 1))
		b := runSummary(t, matrixConfig(sc, false, 1))
		if a != b {
			t.Errorf("%s: same seed diverged:\n %+v\n %+v", sc.Name(), a, b)
		}
		c := runSummary(t, matrixConfig(sc, false, 2))
		if a.SimulatedTime == c.SimulatedTime && a.Events == c.Events {
			t.Errorf("%s: seeds 1 and 2 produced identical runs", sc.Name())
		}
	}
}

// TestAuditTransparency: attaching the auditor must not change a single
// byte of the summary — it schedules no events and draws no randomness.
func TestAuditTransparency(t *testing.T) {
	schemes := []scheme.Scheme{
		scheme.Flooding{},
		scheme.Counter{C: 3},
		scheme.Location{A: 0.0469},
		scheme.AdaptiveCounter{},
		scheme.NeighborCoverage{},
	}
	for _, sc := range schemes {
		plain := runSummary(t, matrixConfig(sc, false, 1))
		cfg := matrixConfig(sc, false, 1)
		a := obs.NewAuditor()
		cfg.Audit = a
		audited := runSummary(t, cfg)
		if plain != audited {
			t.Errorf("%s: auditor perturbed the run:\n off %+v\n on  %+v", sc.Name(), plain, audited)
		}
		if err := a.Err(); err != nil {
			t.Errorf("%s: %v", sc.Name(), err)
		}
	}
}

// TestSummaryPermutationInvariance: the metrics fold must not depend on
// host identity — relabeling every broadcast's source under a permutation
// yields the identical aggregate.
func TestSummaryPermutationInvariance(t *testing.T) {
	cfg := matrixConfig(scheme.AdaptiveCounter{}, false, 1)
	cfg.RetainRecords = true // the permutation below needs the full record set
	n, err := manet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	recs := n.Records()
	if len(recs) == 0 {
		t.Fatal("no broadcast records")
	}
	summarize := func() metrics.Summary {
		var st metrics.Stream
		for _, rec := range recs {
			st.Fold(rec)
		}
		return st.Summary()
	}
	base := summarize()
	hosts := packet.NodeID(cfg.Hosts)
	for _, rec := range recs {
		rec.ID.Source = hosts - 1 - rec.ID.Source // reverse permutation
	}
	permuted := summarize()
	if base != permuted {
		t.Errorf("summary depends on host labels:\n base     %+v\n permuted %+v", base, permuted)
	}
}
