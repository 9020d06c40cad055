package metrics

import (
	"math"
	"sort"

	"repro/internal/sim"
)

// Stream folds completed BroadcastRecords into run aggregates so the
// records themselves can be released: per broadcast it retains only the
// (RE, SRB, latency) triple — 24 bytes — instead of the full record
// behind a map entry and a pointer. Records MUST be folded in arrival
// order and only once final: Summary then reproduces the whole-slice
// reference Summarize (export_test.go) over the same records byte for
// byte (same summation order, same two-pass variance, same nearest-rank
// percentiles), which is what lets the dense network path fold eagerly.
//
// The triples are what exactness costs: StdRE/StdSRB need a second pass
// and the latency percentiles need a sort, so the history cannot be
// collapsed further without changing results.
type Stream struct {
	res  []float64
	srbs []float64
	lats []sim.Duration
}

// Fold absorbs one completed record. The record is not retained; the
// caller may release or reuse it immediately.
func (s *Stream) Fold(r *BroadcastRecord) {
	s.res = append(s.res, r.RE())
	s.srbs = append(s.srbs, r.SRB())
	s.lats = append(s.lats, r.Latency())
}

// Len returns the number of records folded so far.
func (s *Stream) Len() int { return len(s.res) }

// Summary computes the run aggregates over everything folded so far,
// with arithmetic identical to the reference Summarize over the same
// records in fold order. The channel-level counters (HelloSent, Transmissions, ...) are
// outside the per-broadcast stream; the caller fills them in.
func (s *Stream) Summary() Summary {
	out := Summary{Broadcasts: len(s.res)}
	if len(s.res) == 0 {
		return out
	}
	var sumRE, sumSRB float64
	var sumLat sim.Duration
	for i := range s.res {
		sumRE += s.res[i]
		sumSRB += s.srbs[i]
		sumLat += s.lats[i]
	}
	n := float64(len(s.res))
	out.MeanRE = sumRE / n
	out.MeanSRB = sumSRB / n
	out.MeanLatency = sim.Duration(float64(sumLat) / n)

	var varRE, varSRB float64
	for i := range s.res {
		dre := s.res[i] - out.MeanRE
		dsrb := s.srbs[i] - out.MeanSRB
		varRE += dre * dre
		varSRB += dsrb * dsrb
	}
	out.StdRE = math.Sqrt(varRE / n)
	out.StdSRB = math.Sqrt(varSRB / n)

	lats := make([]sim.Duration, len(s.lats))
	copy(lats, s.lats)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	out.LatencyP50 = percentile(lats, 0.50)
	out.LatencyP95 = percentile(lats, 0.95)
	return out
}
