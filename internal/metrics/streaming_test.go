package metrics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Regression for the NaN-poisoning hazard: a zero-reach record (r = 0,
// possible when a source is torn down before holding its own packet, or
// through misuse) must yield finite per-record ratios, and its presence
// in a run must leave every aggregate finite.
func TestSRBZeroReachFiniteAggregates(t *testing.T) {
	z := rec(0, 0, 0)
	if got := z.SRB(); got != 0 {
		t.Fatalf("zero-reach SRB = %v, want 0", got)
	}
	if got := z.RE(); got != 0 {
		t.Fatalf("zero-reach RE = %v, want 0", got)
	}
	// Misreported t > r clamps instead of going negative.
	if got := rec(10, 4, 7).SRB(); got != 0 {
		t.Fatalf("t>r SRB = %v, want 0 (clamped)", got)
	}
	s := Summarize([]*BroadcastRecord{rec(10, 10, 4), z, rec(8, 6, 2)})
	for name, v := range map[string]float64{
		"MeanRE": s.MeanRE, "MeanSRB": s.MeanSRB,
		"StdRE": s.StdRE, "StdSRB": s.StdSRB,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s = %v with a zero-reach record present", name, v)
		}
	}
	// The streaming path must agree.
	var st Stream
	for _, r := range []*BroadcastRecord{rec(10, 10, 4), z, rec(8, 6, 2)} {
		st.Fold(r)
	}
	if got := st.Summary(); got != s {
		t.Fatalf("stream summary %+v != summarize %+v", got, s)
	}
}

// randomRecords draws a population of plausible (and some degenerate)
// completed records.
func randomRecords(rng *rand.Rand, n int) []*BroadcastRecord {
	recs := make([]*BroadcastRecord, n)
	for i := range recs {
		e := rng.Intn(50)
		r := 0
		if e > 0 {
			r = 1 + rng.Intn(e)
		}
		tx := 0
		if r > 0 {
			tx = rng.Intn(r + 1)
		}
		br := NewBroadcastRecord(packet.BroadcastID{Source: packet.NodeID(i), Seq: uint32(i + 1)},
			sim.Time(rng.Int63n(1e9)), e)
		br.Received = r
		br.Transmitted = tx
		br.NoteActivity(br.Start.Add(sim.Duration(rng.Int63n(1e8))))
		recs[i] = br
	}
	return recs
}

// The streaming fold must reproduce Summarize bit for bit when records
// are folded in the same order Summarize iterates them — this is the
// exactness contract the dense network path's eager folding rests on.
func TestStreamMatchesSummarizeExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		recs := randomRecords(rng, rng.Intn(200))
		var st Stream
		for _, r := range recs {
			st.Fold(r)
		}
		if st.Len() != len(recs) {
			t.Fatalf("Len = %d, want %d", st.Len(), len(recs))
		}
		want := Summarize(recs)
		if got := st.Summary(); got != want {
			t.Fatalf("trial %d: stream %+v != summarize %+v", trial, got, want)
		}
	}
}

// Folding in two stages (some eagerly, the rest later) must not change
// the result: the network folds records as their broadcasts complete and
// the stragglers at summarize time.
func TestStreamIncrementalFold(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	recs := randomRecords(rng, 120)
	var st Stream
	for _, r := range recs[:70] {
		st.Fold(r)
	}
	mid := st.Summary() // reading mid-stream must not disturb the fold
	if mid.Broadcasts != 70 {
		t.Fatalf("mid-stream Broadcasts = %d, want 70", mid.Broadcasts)
	}
	for _, r := range recs[70:] {
		st.Fold(r)
	}
	if got, want := st.Summary(), Summarize(recs); got != want {
		t.Fatalf("two-stage fold %+v != summarize %+v", got, want)
	}
}
