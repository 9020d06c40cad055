package manet

// Parallel barrier-window execution for the sharded engine.
//
// Each conservative barrier window splits into two phases. Phase A: one
// worker per shard (the engine's pdes.Pool) drains its own calendar
// wheel up to — strictly before — the barrier on lane-local scheduler
// state. The wheels hold exclusively random-turn mobility timers (the
// engine only routes turns there, and only for the slab-mover
// population), and a turn is pure host-local work: it reads and writes
// its own mover, draws from its own forked RNG stream, and schedules
// only its own next turn, at least one minimum turn duration ahead.
// Phase B: the remaining merged event stream — every MAC, PHY, HELLO,
// assessment, delivery, and record event, i.e. everything whose
// interaction disk could cross a band border within the window — runs
// sequentially on the owning goroutine. That sequential merged drain is
// the deterministic border lane: cross-shard state (the channel's
// active flights, neighbor tables, broadcast records) is only ever touched
// there, in exact (time, seq) order, so completed broadcast records
// fold into the streaming summary at barriers precisely as the
// sequential oracle folds them.
//
// Why phase A cannot perturb the oracle's byte-identical summary:
//   - The window is clamped to the minimum turn duration, so each mover
//     fires at most one turn per window (the next one lands at or past
//     the barrier and the drain's deadline is strict).
//   - A turn fired early — at its own timestamp on the lane clock,
//     ahead of the shared clock — records the segment it replaced, and
//     position/speed queries select the pre-turn segment while the
//     shared clock is still behind the turn, reproducing the oracle's
//     reads exactly (mobility.Roamer.PositionAt).
//   - Lane sequence numbers live in disjoint high-bit namespaces. They
//     order only turn-vs-turn ties across hosts, which are independent
//     events (a turn touches one host), and turn instants are drawn
//     from a continuous distribution so a turn tying a border-lane
//     event at the exact nanosecond has measure zero — and even then
//     positions are continuous across the turn instant.
//
// The audited configuration keeps the fully sequential path: the audit
// hook's contract is to observe every event in merged (time, seq)
// order, which a lane drain bypasses by construction.

import (
	"context"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"repro/internal/sim"
)

// ParallelStats reports how the sharded engine's barrier windows were
// executed. All counters are zero for the sequential engine. The
// speculative engine additionally accounts its windows: Speculated
// windows were attempted optimistically, Committed of them validated
// (their lane-fired events count into ShardExecuted), and RolledBack
// were rejected — restored from their micro-checkpoint and replayed on
// the sequential border lane.
type ParallelStats struct {
	Barriers       int      // barrier windows executed
	Widened        int      // always zero; kept for the benchmark's trace summary
	ShardExecuted  []uint64 // events fired by each shard's parallel drain
	BorderExecuted uint64   // events executed on the sequential border lane
	WaitNS         int64    // cumulative worker idle time at drain barriers
	Speculated     int      // windows attempted under speculative execution
	Committed      int      // speculative windows that validated and committed
	RolledBack     int      // speculative windows restored and replayed
}

// BorderShare is the fraction of all executed events that ran on the
// sequential border lane rather than a parallel shard drain: 1 means
// fully sequential, 0 means every event ran on a lane. Only meaningful
// on a snapshot returned by Network.ParallelStats (which derives
// BorderExecuted); zero events reports 1.
func (st ParallelStats) BorderShare() float64 {
	var shard uint64
	for _, c := range st.ShardExecuted {
		shard += c
	}
	total := shard + st.BorderExecuted
	if total == 0 {
		return 1
	}
	return float64(st.BorderExecuted) / float64(total)
}

// CommitRate is the fraction of speculative windows that validated and
// committed; 0 when no window was attempted.
func (st ParallelStats) CommitRate() float64 {
	if st.Speculated == 0 {
		return 0
	}
	return float64(st.Committed) / float64(st.Speculated)
}

// ParallelStats returns a snapshot of the engine's barrier accounting.
// BorderExecuted is derived: every event not fired by a shard drain ran
// on the sequential border lane.
func (n *Network) ParallelStats() ParallelStats {
	st := n.pstats
	st.ShardExecuted = append([]uint64(nil), st.ShardExecuted...)
	var shard uint64
	for _, c := range st.ShardExecuted {
		shard += c
	}
	st.BorderExecuted = n.sched.Executed() - shard
	return st
}

// parallelEligible reports whether barrier windows may run phase A on
// the worker pool. The shard wheels carry events only when the slab
// mover population is in play (random-turn mobility, not static), and
// the audit hook requires the merged
// sequential drain.
func (n *Network) parallelEligible() bool {
	return n.shards > 0 && n.parallelOK && n.audit == nil
}

// drainWindow executes phase A of one barrier window: every shard's
// wheel is drained up to the barrier by its own pool worker, under a
// per-shard pprof label so CPU profiles attribute samples to shards.
// Worker idle time (each worker's gap to the slowest drain of the
// window) accumulates into WaitNS for load-imbalance visibility.
func (n *Network) drainWindow(barrier sim.Time) {
	n.sizeWindowAccounting()
	st := &n.pstats
	n.sched.BeginParallelDrain()
	n.pool.Do(n.shards, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			start := time.Now()
			pprof.Do(context.Background(), n.shardLabels[s], func(context.Context) {
				st.ShardExecuted[s] += n.sched.DrainShardUntil(s, barrier)
			})
			n.drainDurs[s] = time.Since(start)
		}
	})
	n.sched.EndParallelDrain()
	n.foldDrainWait()
}

// sizeWindowAccounting allocates, on a network's first parallel window,
// the per-shard accounting both window kinds fill: the executed counts,
// the drain durations and the pprof labels.
func (n *Network) sizeWindowAccounting() {
	if n.pstats.ShardExecuted != nil {
		return
	}
	n.pstats.ShardExecuted = make([]uint64, n.shards)
	n.drainDurs = make([]time.Duration, n.shards)
	n.shardLabels = make([]pprof.LabelSet, n.shards)
	for s := range n.shardLabels {
		n.shardLabels[s] = pprof.Labels("shard", strconv.Itoa(s))
	}
}

// foldDrainWait adds the window's worker idle time to WaitNS: each
// drain's gap to the slowest drain of the window.
func (n *Network) foldDrainWait() {
	slowest := slices.Max(n.drainDurs)
	for _, d := range n.drainDurs {
		n.pstats.WaitNS += int64(slowest - d)
	}
}
