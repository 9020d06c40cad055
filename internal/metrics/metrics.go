// Package metrics defines the paper's performance measures and their
// per-broadcast bookkeeping:
//
//   - RE (reachability): r/e, where r is the number of hosts that
//     received the broadcast packet and e the number of hosts reachable
//     (graph-connected) from the source when the broadcast started.
//   - SRB (saved rebroadcasts): (r-t)/r, where t is the number of hosts
//     that actually transmitted the packet.
//   - Latency: from broadcast initiation to the last host finishing its
//     rebroadcast or deciding not to rebroadcast.
//
// The source host counts in r, e, and t (it trivially has the packet and
// always transmits it), which makes flooding's SRB exactly 0 and keeps
// RE = 1 for an isolated source.
package metrics

import (
	"math"

	"repro/internal/packet"
	"repro/internal/sim"
)

// BroadcastRecord accumulates one broadcast operation's outcome.
type BroadcastRecord struct {
	ID    packet.BroadcastID
	Start sim.Time

	// Reachable is e: hosts connected to the source at initiation time,
	// including the source itself.
	Reachable int
	// Received is r: hosts holding an intact copy, including the source.
	Received int
	// Transmitted is t: hosts that put the packet on the air, including
	// the source.
	Transmitted int

	// lastActivity is the time of the latest rebroadcast completion or
	// inhibit decision attributed to this broadcast.
	lastActivity sim.Time
}

// MakeBroadcastRecord starts bookkeeping for one broadcast of id
// initiated at start with e reachable hosts. It returns the record by
// value so callers can store records in an arena rather than behind
// per-record pointers.
func MakeBroadcastRecord(id packet.BroadcastID, start sim.Time, reachable int) BroadcastRecord {
	return BroadcastRecord{ID: id, Start: start, Reachable: reachable, lastActivity: start}
}

// NoteActivity extends the broadcast's completion time.
func (r *BroadcastRecord) NoteActivity(at sim.Time) {
	if at > r.lastActivity {
		r.lastActivity = at
	}
}

// RE returns the reachability ratio r/e, clamped to [0, 1]: host
// mobility can carry the packet to hosts that were outside the source's
// component when the broadcast started, making raw r/e exceed one.
func (r *BroadcastRecord) RE() float64 {
	if r.Reachable == 0 {
		return 0
	}
	re := float64(r.Received) / float64(r.Reachable)
	if re > 1 {
		re = 1
	}
	return re
}

// SRB returns the saved-rebroadcast ratio (r-t)/r, clamped to [0, 1]
// like RE: a zero-reach record (r = 0) yields 0 rather than NaN, and a
// record misreporting t > r yields 0 rather than a negative ratio, so a
// single degenerate broadcast can never poison MeanSRB/StdSRB across a
// whole run.
func (r *BroadcastRecord) SRB() float64 {
	if r.Received == 0 {
		return 0
	}
	srb := float64(r.Received-r.Transmitted) / float64(r.Received)
	if srb < 0 {
		return 0
	}
	return srb
}

// Latency returns the broadcast completion latency.
func (r *BroadcastRecord) Latency() sim.Duration {
	return r.lastActivity.Sub(r.Start)
}

// Summary aggregates a whole simulation run.
type Summary struct {
	Broadcasts int

	MeanRE      float64
	MeanSRB     float64
	MeanLatency sim.Duration
	StdRE       float64
	StdSRB      float64

	// LatencyP50 and LatencyP95 are per-broadcast latency percentiles.
	// Under Merge they are combined as broadcast-weighted averages of
	// the replica percentiles — an approximation that is accurate when
	// replicas are identically distributed, which they are here.
	LatencyP50 sim.Duration
	LatencyP95 sim.Duration

	// HelloSent counts HELLO transmissions during the run (fig. 12b).
	HelloSent int
	// RepairsRequested/RepairsDelivered count the reliable-broadcast
	// extension's NACKs and successful retransmissions.
	RepairsRequested int
	RepairsDelivered int
	// Channel-level counters.
	Transmissions int
	Deliveries    int
	Collisions    int
	// SimulatedTime is the virtual length of the run.
	SimulatedTime sim.Duration
	// Events is the number of simulator events executed.
	Events uint64
}

// percentile returns the p-quantile of a sorted latency slice using the
// nearest-rank method.
func percentile(sorted []sim.Duration, p float64) sim.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Merge combines summaries from independent replicas, weighting each by
// its broadcast count. Standard deviations are combined as the pooled
// within-replica deviation (adequate for reporting; the harness averages
// over replicas primarily for the means).
func Merge(summaries []Summary) Summary {
	var out Summary
	if len(summaries) == 0 {
		return out
	}
	var wRE, wSRB, wStdRE, wStdSRB float64
	var wLat, wP50, wP95 float64
	total := 0
	for _, s := range summaries {
		w := float64(s.Broadcasts)
		total += s.Broadcasts
		wRE += s.MeanRE * w
		wSRB += s.MeanSRB * w
		wLat += float64(s.MeanLatency) * w
		wP50 += float64(s.LatencyP50) * w
		wP95 += float64(s.LatencyP95) * w
		wStdRE += s.StdRE * s.StdRE * w
		wStdSRB += s.StdSRB * s.StdSRB * w
		out.HelloSent += s.HelloSent
		out.RepairsRequested += s.RepairsRequested
		out.RepairsDelivered += s.RepairsDelivered
		out.Transmissions += s.Transmissions
		out.Deliveries += s.Deliveries
		out.Collisions += s.Collisions
		out.SimulatedTime += s.SimulatedTime
		out.Events += s.Events
	}
	out.Broadcasts = total
	if total > 0 {
		n := float64(total)
		out.MeanRE = wRE / n
		out.MeanSRB = wSRB / n
		out.MeanLatency = sim.Duration(wLat / n)
		out.LatencyP50 = sim.Duration(wP50 / n)
		out.LatencyP95 = sim.Duration(wP95 / n)
		out.StdRE = math.Sqrt(wStdRE / n)
		out.StdSRB = math.Sqrt(wStdSRB / n)
	}
	return out
}
