package manet

// Speculative (optimistic) barrier windows for EngineSpeculative.
//
// The sharded engine's barrier loop (parallel.go) keeps every radio
// event on the sequential border lane because a transmission's
// interaction disk may reach across a band border. On a static world
// the disks never move, so most windows contain no border interaction
// at all — the speculative engine exploits that by validating instead
// of proving:
//
//  1. At the barrier (a sequential point) it takes an in-memory
//     micro-checkpoint: the run's snapshot document (snapshot.go),
//     kept as live structs — never encoded.
//  2. The channel partitions its in-flight transmissions into per-band
//     lanes (phy.BeginSpecWindow); the window's pending events are
//     extracted in merged (time, seq) order and classified by owning
//     band (a host's MAC/assessment events belong to the band of its
//     fixed position, a transmission to its sender's band). Windows
//     are cut into segments at origination times — issuing a broadcast
//     touches globally ordered state, so each origination fires
//     sequentially between two speculative segments.
//  3. One worker per band drains its lane concurrently
//     (sim.RunLane): lane-local clocks, lane-local provisional
//     sequence numbers, lane-local transmission lists and record
//     journals. The conflict detector is in the transmit path
//     (phy.TransmitLane): any transmission whose interaction disk is
//     not wholly inside its band flags the lane.
//  4. Commit validates the window (no flagged lane, no cross-band
//     same-timestamp firing) and then replays the lanes' side effects
//     against the shared state in exact oracle order: scheduler
//     sequence numbers in global creation order (sim.CommitSpec),
//     channel stats and actives (phy.CommitSpecWindow), and the
//     journaled per-broadcast record mutations in global (time) order
//     (applySpecJournals). The committed state is byte-identical to a
//     sequential drain of the same window.
//  5. A rejected window discards the entire speculative object graph:
//     the micro-checkpoint is restored into a fresh Network whose guts
//     this Network adopts, and the window replays sequentially.
//     Consecutive rollbacks back the engine off exponentially
//     (speculate only every 2^k-th window) so a hostile topology—
//     bands narrower than one interaction disk — degrades to the
//     border-lane engine plus a bounded number of wasted drains.
//
// Eligibility (speculativeEligible) restricts speculation to
// configurations where every in-window event is classifiable by band
// and every side effect is journaled or lane-local: static worlds,
// broadcast-only traffic (no HELLO beaconing, no repair unicasts, no
// protocol), no shared random streams (loss, capture), dense folding
// record state, and no observers (telemetry, audit, tracer, delivery
// hook, progress). Anything else degrades per-window to the sharded
// engine's sequential merged drain — correctness never depends on
// eligibility, only speedup does.

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/mac"
	"repro/internal/nodeset"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// recOp is one journaled per-broadcast record mutation: during a
// speculative window the note*/open* entry points append ops to the
// acting host's lane journal instead of touching the shared record
// arena, and commit replays them in global time order.
type recOp struct {
	at   sim.Time
	kind uint8
	bid  packet.BroadcastID
}

// recOp kinds, mirroring the note*/open* entry points in network.go.
const (
	recOpReceived uint8 = iota
	recOpTransmitted
	recOpActivity
	recOpOpenInc
	recOpOpenDec
)

// recJournal is one lane's record-mutation journal, in execution order
// (which is (time, seq) order within the lane).
type recJournal struct{ ops []recOp }

// specNote journals one record op on the acting host's lane, stamped
// with the lane clock so commit can interleave the lanes exactly as
// the sequential drain would have executed them.
func (n *Network) specNote(lane int32, kind uint8, bid packet.BroadcastID) {
	j := &n.specJournals[lane]
	j.ops = append(j.ops, recOp{at: n.sched.LaneNow(int(lane)), kind: kind, bid: bid})
}

// speculativeEligible reports whether barrier windows may run under
// speculative lane execution. See the package comment above for why
// each exclusion exists; an ineligible EngineSpeculative run behaves
// exactly like EngineSharded.
func (n *Network) speculativeEligible() bool {
	c := n.cfg
	return n.engine == EngineSpeculative &&
		n.shards > 1 &&
		c.Static &&
		c.HelloMode == HelloOff &&
		!c.Repair &&
		c.LossRate == 0 &&
		c.CaptureRatio == 0 &&
		n.fold && // streaming fold (no RetainRecords)
		n.obs == nil &&
		n.audit == nil &&
		n.Tracer == nil &&
		n.DeliveryHook == nil &&
		n.Protocol == nil &&
		n.Progress == nil
}

// assignSpecLanes performs the one-time window setup: every host (and
// its MAC) is stamped with the band owning its position — fixed for
// the whole run on a static world — and the per-lane journals, pools,
// and profiling labels are sized.
func (n *Network) assignSpecLanes() {
	if n.specAssigned {
		return
	}
	n.specAssigned = true
	n.bindSpecLanes()
	if n.specJournals == nil {
		n.specJournals = make([]recJournal, n.shards)
		n.specFrames = make([][]*packet.Frame, n.shards)
		n.specSets = make([][]*nodeset.Set, n.shards)
		n.specExtract = make([][]*sim.Event, n.shards)
	}
	if n.pstats.ShardExecuted == nil {
		n.pstats.ShardExecuted = make([]uint64, n.shards)
	}
	if n.drainDurs == nil {
		n.drainDurs = make([]time.Duration, n.shards)
	}
	if n.shardLabels == nil {
		n.shardLabels = make([]pprof.LabelSet, n.shards)
		for s := range n.shardLabels {
			n.shardLabels[s] = pprof.Labels("shard", strconv.Itoa(s))
		}
	}
}

// bindSpecLanes stamps each host and its MAC with the band of its
// position. Called once per world — and again after a rollback, whose
// restored host objects are fresh.
func (n *Network) bindSpecLanes() {
	for _, h := range n.hosts {
		lane := int32(n.shardOfY(h.mover.Position().Y))
		h.lane = lane
		h.mac.SetLane(int(lane))
	}
}

// classifySpec partitions the extracted window events into per-lane
// slices by owning band, preserving each lane's (time, seq) order. It
// reports false when any event cannot be attributed to a single band —
// the window must then be un-extracted and drained sequentially.
func (n *Network) classifySpec(events []*sim.Event) bool {
	for s := range n.specExtract {
		clearEventSlice(n.specExtract[s])
		n.specExtract[s] = n.specExtract[s][:0]
	}
	for _, e := range events {
		if e.HasFunc() {
			return false // closures carry no owner
		}
		var lane int32
		switch r := e.Runner().(type) {
		case *pendingRebroadcast:
			lane = r.h.lane
		case *mac.MAC:
			lane = int32(r.Lane())
		default:
			// The origination clamp keeps originationEvents out of the
			// window; anything else unrecognized aborts classification.
			sender, ok := phy.TransmissionSender(e.Runner())
			if !ok {
				return false
			}
			lane = n.hosts[sender].lane
		}
		if lane < 0 || int(lane) >= n.shards {
			return false
		}
		n.specExtract[lane] = append(n.specExtract[lane], e)
	}
	return true
}

func clearEventSlice(es []*sim.Event) {
	for i := range es {
		es[i] = nil
	}
}

// runSpecWindow executes one barrier window under validate-or-replay.
// Originations mutate global state (the shared sequence counter, the
// record arena's arrival order, the reachability walk),
// so the window is cut into segments at the armed origination times:
// each segment speculates up to strictly before the next origination,
// the origination itself fires on the sequential lane, and speculation
// resumes behind it — the waves an origination spawns land in the
// segments that follow it, where they drain in parallel. The window
// always ends with the scheduler sequentially at barrier,
// byte-identical to a plain RunUntil(barrier) from the window's start
// state.
func (n *Network) runSpecWindow(barrier sim.Time) {
	if n.specSkip > 0 {
		// Adaptive backoff after consecutive rollbacks.
		n.specSkip--
		n.sched.RunUntil(barrier)
		return
	}
	for {
		now := n.sched.Now()
		specEnd := barrier
		for i := range n.originations {
			if ev := n.originations[i].ev; ev != nil && ev.At() > now && ev.At() <= specEnd {
				specEnd = ev.At() - 1
			}
		}
		if specEnd > now {
			if !n.specSegment(specEnd) {
				// Rolled back: replay the window's remainder sequentially.
				n.sched.RunUntil(barrier)
				return
			}
		}
		if specEnd >= barrier {
			n.sched.RunUntil(barrier) // clamp the clock to the barrier
			return
		}
		// Fire the blocking origination(s) sequentially, then resume
		// speculating behind them.
		n.sched.RunUntil(specEnd + 1)
	}
}

// specSegment attempts one speculative segment from the current clock
// up to specEnd (inclusive): micro-checkpoint, concurrent lane drains,
// then either an oracle-order commit or a checkpoint restore. It
// returns false only after a rollback — the caller then replays
// sequentially; on every other outcome the clock has reached specEnd
// with state byte-identical to a sequential drain.
func (n *Network) specSegment(specEnd sim.Time) bool {
	n.assignSpecLanes()
	// Probe the cheap disqualifiers before paying for the checkpoint: a
	// transmission already on the air spanning a band border (its
	// completion interacts with two lanes), an empty segment, or an
	// unclassifiable event. None of these probes mutates state the
	// snapshot would capture — Unextract restores the scheduler exactly.
	if !n.ch.SpecWindowViable(n.shards, n.area.Height) {
		n.sched.RunUntil(specEnd)
		return true
	}
	probe := n.sched.ExtractUntil(specEnd)
	viable := len(probe) > 0 && n.classifySpec(probe)
	n.sched.Unextract(probe)
	if !viable {
		n.sched.RunUntil(specEnd)
		return true
	}
	// The micro-checkpoint: the in-memory snapshot document, taken
	// before the channel is partitioned (so its invariants — all events
	// pending, actives on the shared list — hold). A state that cannot
	// snapshot cannot roll back, so it never speculates. The document is
	// pooled — each segment truncates and refills the same backing
	// arrays, so no per-segment document allocation survives warm-up.
	ck := &n.ckDoc
	resetCheckpoint(ck)
	if err := n.snapshotInto(ck); err != nil {
		n.sched.RunUntil(specEnd)
		return true
	}
	if !n.ch.BeginSpecWindow(n.shards, n.area.Height) {
		// Unreachable after the viability probe (nothing ran between),
		// kept as a belt-and-suspenders sequential fallback.
		n.sched.RunUntil(specEnd)
		return true
	}
	events := n.sched.ExtractUntil(specEnd)
	if len(events) == 0 || !n.classifySpec(events) {
		n.sched.Unextract(events)
		n.ch.CommitSpecWindow() // folds the untouched lanes back
		n.sched.RunUntil(specEnd)
		return true
	}

	n.sched.BeginSpec(n.shards)
	n.specOpen = true
	n.pstats.Speculated++
	n.pool.Do(n.shards, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			start := time.Now()
			pprof.Do(context.Background(), n.shardLabels[s], func(context.Context) {
				n.sched.RunLane(s, n.specExtract[s], specEnd)
			})
			n.drainDurs[s] = time.Since(start)
		}
	})
	n.specOpen = false
	fired := make([]uint64, n.shards)
	for s := range fired {
		fired[s] = n.sched.LaneFired(s) // read before CommitSpec truncates
	}

	if n.sched.CommitSpec(specEnd) {
		n.ch.CommitSpecWindow()
		n.applySpecJournals()
		n.mergeSpecPools()
		st := &n.pstats
		st.Committed++
		for s, f := range fired {
			st.ShardExecuted[s] += f
		}
		var slowest time.Duration
		for _, d := range n.drainDurs {
			if d > slowest {
				slowest = d
			}
		}
		for _, d := range n.drainDurs {
			st.WaitNS += int64(slowest - d)
		}
		n.specFails = 0
		return true
	}
	n.rollbackSpec(ck)
	return false
}

// rollbackSpec discards the conflicted window: the micro-checkpoint is
// restored into a fresh Network (the ordinary construction-and-restore
// path) whose state this Network adopts, the failed window's journals
// and lane pools are dropped, and the exponential backoff advances.
func (n *Network) rollbackSpec(ck *snapshot.Checkpoint) {
	n2, err := RestoreCheckpoint(ck, n.cfg)
	if err != nil {
		// The checkpoint was taken from this very state moments ago; a
		// failure to restore it is a bug, not a runtime condition.
		panic(fmt.Sprintf("manet: speculative rollback failed: %v", err))
	}
	n.adoptRestored(n2)
	for s := range n.specJournals {
		n.specJournals[s].ops = n.specJournals[s].ops[:0]
		fp := n.specFrames[s]
		for i := range fp {
			fp[i] = nil
		}
		n.specFrames[s] = fp[:0]
		sp := n.specSets[s]
		for i := range sp {
			sp[i] = nil
		}
		n.specSets[s] = sp[:0]
	}
	n.pstats.RolledBack++
	n.specFails++
	shift := n.specFails
	if shift > 6 {
		shift = 6
	}
	n.specSkip = 1<<shift - 1
}

// adoptRestored replaces this Network's simulation state with the
// restored network's, keeping the driver-side accounting (stats,
// backoff, scratch, checkpoint hooks) and re-pointing every back
// reference so the adopted hosts and originations mutate this Network.
func (n *Network) adoptRestored(n2 *Network) {
	old := n.pool
	pstats := n.pstats
	drainDurs, labels := n.drainDurs, n.shardLabels
	journals, frames, sets, extract := n.specJournals, n.specFrames, n.specSets, n.specExtract
	mergeIdx := n.specMergeIdx
	fails, skip := n.specFails, n.specSkip
	ckEvery, ckHook := n.CheckpointEvery, n.CheckpointHook
	// The pooled document (the very checkpoint being restored from, in
	// the rollback path), the encode buffer and the digest memo survive
	// adoption by value: the struct copy keeps the slice headers, so the
	// next snapshot still reuses their capacity. RestoreCheckpoint copied
	// everything it needed out of the document, so carrying it across is
	// safe.
	ckDoc, ckBuf, digest := n.ckDoc, n.ckBuf, n.digestCache

	*n = *n2

	n.ckDoc, n.ckBuf, n.digestCache = ckDoc, ckBuf, digest
	n.pstats = pstats
	n.drainDurs, n.shardLabels = drainDurs, labels
	n.specJournals, n.specFrames, n.specSets, n.specExtract = journals, frames, sets, extract
	n.specMergeIdx = mergeIdx
	n.specFails, n.specSkip = fails, skip
	n.specAssigned = true
	n.CheckpointEvery, n.CheckpointHook = ckEvery, ckHook
	n.ran = true
	for _, h := range n.hosts {
		h.net = n
	}
	for i := range n.originations {
		n.originations[i].n = n
	}
	n.bindSpecLanes()
	if old != nil {
		old.Close() // the adopted network brought its own pool
	}
}

// applySpecJournals replays the lanes' record mutations against the
// shared arena in global time order (a k-way merge of the per-lane
// journals; cross-lane ties cannot occur in a validated window). The
// fold frontier therefore advances through exactly the states the
// sequential drain would have produced.
func (n *Network) applySpecJournals() {
	k := n.shards
	if cap(n.specMergeIdx) < k {
		n.specMergeIdx = make([]int, k)
	}
	idx := n.specMergeIdx[:k]
	for i := range idx {
		idx[i] = 0
	}
	for {
		best := -1
		var bestAt sim.Time
		for s := 0; s < k; s++ {
			ops := n.specJournals[s].ops
			if idx[s] >= len(ops) {
				continue
			}
			if at := ops[idx[s]].at; best < 0 || at < bestAt {
				best, bestAt = s, at
			}
		}
		if best < 0 {
			break
		}
		op := n.specJournals[best].ops[idx[best]]
		idx[best]++
		n.applyRecOp(op)
	}
	for s := range n.specJournals {
		n.specJournals[s].ops = n.specJournals[s].ops[:0]
	}
}

// applyRecOp applies one journaled record mutation, mirroring the
// sequential bodies of the note*/open* entry points in network.go.
func (n *Network) applyRecOp(op recOp) {
	switch op.kind {
	case recOpReceived:
		rec := n.record(op.bid)
		rec.Received++
		rec.NoteActivity(op.at)
	case recOpTransmitted:
		n.record(op.bid).Transmitted++
	case recOpActivity:
		n.record(op.bid).NoteActivity(op.at)
	case recOpOpenInc:
		n.recOpen[op.bid.Seq-1-n.recBase]++
	case recOpOpenDec:
		idx := op.bid.Seq - 1 - n.recBase
		n.recOpen[idx]--
		if n.recOpen[idx] < 0 {
			panic(fmt.Sprintf("manet: open count for %v went negative", op.bid))
		}
		if n.fold && idx == 0 {
			n.foldFront()
		}
	default:
		panic(fmt.Sprintf("manet: unknown journaled record op %d", op.kind))
	}
}

// mergeSpecPools folds the lanes' frame and bitset pools back into the
// shared pools at commit, in band order. Lane pools start each window
// empty and allocate on miss, so merged pool depths may exceed the
// sequential oracle's — pools are unobservable caches, and their
// objects are fully overwritten on reuse.
func (n *Network) mergeSpecPools() {
	for s := range n.specFrames {
		fp := n.specFrames[s]
		n.framePool = append(n.framePool, fp...)
		for i := range fp {
			fp[i] = nil
		}
		n.specFrames[s] = fp[:0]
		sp := n.specSets[s]
		n.setPool = append(n.setPool, sp...)
		for i := range sp {
			sp[i] = nil
		}
		n.specSets[s] = sp[:0]
	}
}
