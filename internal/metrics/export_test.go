package metrics

import (
	"math"
	"sort"

	"repro/internal/packet"
	"repro/internal/sim"
)

// NewBroadcastRecord is MakeBroadcastRecord behind a pointer, the shape
// Summarize takes.
func NewBroadcastRecord(id packet.BroadcastID, start sim.Time, reachable int) *BroadcastRecord {
	r := MakeBroadcastRecord(id, start, reachable)
	return &r
}

// Summarize is the reference Stream is held to: run-level aggregates
// computed over the whole record slice at once.
// Broadcasts whose source was isolated (Reachable <= 1) still count: the
// paper's definition gives them RE = 1 trivially, which matches r = e = 1.
func Summarize(records []*BroadcastRecord) Summary {
	s := Summary{Broadcasts: len(records)}
	if len(records) == 0 {
		return s
	}
	var sumRE, sumSRB float64
	var sumLat sim.Duration
	for _, r := range records {
		sumRE += r.RE()
		sumSRB += r.SRB()
		sumLat += r.Latency()
	}
	n := float64(len(records))
	s.MeanRE = sumRE / n
	s.MeanSRB = sumSRB / n
	s.MeanLatency = sim.Duration(float64(sumLat) / n)

	var varRE, varSRB float64
	for _, r := range records {
		dre := r.RE() - s.MeanRE
		dsrb := r.SRB() - s.MeanSRB
		varRE += dre * dre
		varSRB += dsrb * dsrb
	}
	s.StdRE = math.Sqrt(varRE / n)
	s.StdSRB = math.Sqrt(varSRB / n)

	lats := make([]sim.Duration, len(records))
	for i, r := range records {
		lats[i] = r.Latency()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	s.LatencyP50 = percentile(lats, 0.50)
	s.LatencyP95 = percentile(lats, 0.95)
	return s
}
