package sim

import (
	"container/heap"
	"fmt"
)

// Speculative window execution: between BeginSpec and CommitSpec the
// scheduler's pending events with timestamps inside the window have been
// removed (ExtractUntil) and handed to per-lane drains (RunLane), one
// lane per spatial band. Each lane fires its events in local (time, seq)
// order and may schedule follow-up events through the Lane* entry
// points, which allocate from lane-local pools with provisional
// sequence numbers drawn from the lane's namespaced counter
// (laneSeqBase) — so no lane ever touches shared scheduler state.
//
// CommitSpec then validates the window: if any lane flagged a conflict,
// or two lanes fired events at the same timestamp (so their relative
// order could have mattered), the window is rejected and the caller
// restores a checkpoint and replays sequentially. Otherwise the window
// is oracle-equivalent by construction, and commit makes the scheduler
// state byte-identical to a sequential execution of the same events:
//
//   - executed grows by the total fired count, exactly as Step would
//     have counted them;
//   - every Lane* schedule call consumes one shared sequence number, in
//     global creation order. Because a validated window has no
//     cross-lane timestamp ties, creation timestamps across lanes are
//     distinct, so sorting creations by (creation time, lane journal
//     order) reproduces the exact order a sequential run would have
//     made the same calls — dead events (fired or cancelled inside the
//     window) still consume their number, surviving events are
//     renumbered and inserted into the ladder;
//   - the clock advances to the barrier.
//
// The validation rule is deliberately conservative: cross-lane
// same-timestamp pairs are rejected even when both events are
// independent, because proving independence would cost more than the
// occasional replay.

// specLane is the per-band resource set a speculative drain runs on.
// Everything here is touched only by the lane's own goroutine between
// BeginSpec and the RunLane barrier, and only by the scheduler's owning
// goroutine otherwise.
type specLane struct {
	now Time
	seq uint64 // next provisional sequence number, namespaced by laneSeqBase

	heap      laneHeap // lane-created events not yet fired
	created   []*Event // journal of lane-created events, in creation order
	createdAt []Time   // lane clock at each creation
	fired     []*Event // events fired by this lane, in (at, seq) order

	free       []*Event
	poolHits   uint64
	poolMisses uint64

	conflict bool
}

// alloc produces a cleared event record from the lane's own free-list
// with the lane's next provisional sequence number.
func (ln *specLane) alloc(at Time) *Event {
	ln.seq++
	return allocFrom(&ln.free, &ln.poolHits, &ln.poolMisses, at, ln.seq)
}

// Runner returns the event's callback. Speculative classification uses
// it to route an extracted event to the lane owning its state; a closure
// scheduled through Schedule comes back as an unexported funcRunner,
// which names no owner.
func (e *Event) Runner() Runner { return e.runner }

// ExtractUntil removes and returns every pending event with timestamp at
// or before deadline, in global (time, seq) order — the exact order
// RunUntil(deadline) would have fired them. Cancelled tombstones are
// recycled, not returned. The returned slice is owned by the scheduler
// and valid until the next ExtractUntil call; every event in it must be
// given back, either by firing it inside a committed speculative window
// or through Unextract. A Keyed event cannot be extracted (its key
// moves under the owner, which a lane cannot follow) and panics.
func (s *Scheduler) ExtractUntil(deadline Time) []*Event {
	s.assertSequential("ExtractUntil")
	out := s.extractBuf[:0]
	for {
		at, ok := s.peekNext()
		if !ok || at > deadline {
			break
		}
		var e *Event
		if len(s.wheels) == 0 {
			e = s.lq.pop(s)
		} else {
			e = s.popMerged()
		}
		if e.keyed {
			panic("sim: ExtractUntil reached a keyed event")
		}
		s.live--
		out = append(out, e)
	}
	s.extractBuf = out
	return out
}

// Unextract reinserts events returned by ExtractUntil, undoing the
// extraction. Used when window classification decides the window cannot
// run speculatively: the events go back into the ladder (ordering is
// unchanged — the merged pop orders purely by (time, seq)) and the
// caller falls back to a sequential RunUntil.
func (s *Scheduler) Unextract(events []*Event) {
	s.assertSequential("Unextract")
	for _, e := range events {
		s.lq.insert(e)
		s.live++
	}
}

// BeginSpec opens a speculative window with the given number of lanes.
// The caller must already have extracted the window's events and decided
// which lane each belongs to; after this call, only RunLane and the
// Lane* entry points may touch the scheduler until CommitSpec.
func (s *Scheduler) BeginSpec(lanes int) {
	switch {
	case s.parallel:
		panic("sim: BeginSpec during a parallel drain")
	case s.spec:
		panic("sim: speculative window already open")
	case s.audit != nil:
		panic("sim: speculative window under the audit hook (it must observe every event in merged order)")
	case lanes <= 0:
		panic("sim: BeginSpec with non-positive lane count")
	}
	if cap(s.specLanes) < lanes {
		s.specLanes = make([]specLane, lanes)
	}
	s.specLanes = s.specLanes[:lanes]
	for i := range s.specLanes {
		ln := &s.specLanes[i]
		ln.now = s.now
		ln.seq = laneSeqBase(i)
		ln.conflict = false
		clearEvents(ln.heap)
		ln.heap = ln.heap[:0]
		clearEvents(ln.created)
		ln.created = ln.created[:0]
		ln.createdAt = ln.createdAt[:0]
		clearEvents(ln.fired)
		ln.fired = ln.fired[:0]
	}
	// Seed the lane pools from the shared free-list. Commit recycles
	// every event the window consumed into the shared pool (the owning
	// goroutine's), so without this hand-back each window would allocate
	// its lane-created events fresh while the shared pool only ever
	// grew: the records circulate shared → lanes → shared instead. One
	// extra share stays behind for the sequential path's own reuse.
	if share := len(s.free) / (lanes + 1); share > 0 {
		for i := range s.specLanes {
			ln := &s.specLanes[i]
			off := len(s.free) - share
			ln.free = append(ln.free, s.free[off:]...)
			clearEvents(s.free[off:])
			s.free = s.free[:off]
		}
	}
	s.spec = true
}

func clearEvents(es []*Event) {
	for i := range es {
		es[i] = nil
	}
}

// FlagLaneConflict marks the lane's window as conflicted: the lane
// touched state it cannot prove local (an access within the locality
// margin of a band border, or any other cross-band interaction). A
// flagged window is rejected by CommitSpec; RunLane also stops its drain
// early once its own lane is flagged. Must only be called from the
// lane's own goroutine while the window is open.
func (s *Scheduler) FlagLaneConflict(lane int) {
	s.specLanes[lane].conflict = true
}

// LaneFired returns how many events the lane fired in the open window.
func (s *Scheduler) LaneFired(lane int) uint64 {
	return uint64(len(s.specLanes[lane].fired))
}

// LaneNow returns the clock a callback on the given lane observes: the
// lane clock while a speculative window is open, the shared clock
// otherwise. Lane -1 always reads the shared clock.
func (s *Scheduler) LaneNow(lane int) Time {
	if s.spec && lane >= 0 {
		return s.specLanes[lane].now
	}
	return s.now
}

// LaneScheduleRunner is ScheduleRunner routed through a speculative
// lane: during an open window it allocates from the lane's pool with a
// provisional sequence number and queues onto the lane's private heap;
// otherwise it falls through to the shared path. Model code on the
// speculative hot path schedules exclusively through the Lane* entry
// points so the same code runs unchanged under both engines.
func (s *Scheduler) LaneScheduleRunner(lane int, at Time, r Runner) *Event {
	if !s.spec || lane < 0 {
		return s.ScheduleRunner(at, r)
	}
	ln := &s.specLanes[lane]
	if at < ln.now {
		panic(fmt.Sprintf("sim: schedule at %v before lane now %v", at, ln.now))
	}
	if r == nil {
		panic("sim: schedule with nil runner")
	}
	e := ln.alloc(at)
	e.runner = r
	heap.Push(&ln.heap, e)
	ln.created = append(ln.created, e)
	ln.createdAt = append(ln.createdAt, ln.now)
	return e
}

// LaneAfterRunner is AfterRunner routed through a speculative lane,
// relative to the clock the lane observes.
func (s *Scheduler) LaneAfterRunner(lane int, d Duration, r Runner) *Event {
	return s.LaneScheduleRunner(lane, s.LaneNow(lane).Add(d), r)
}

// LaneCancel is Cancel routed through a speculative lane. Cancelling an
// extracted event leaves the live count alone (extraction already
// removed it); cancelling a lane-created event leaves its journal entry
// in place so it still consumes a sequence number at commit, exactly as
// a sequential Schedule+Cancel pair would have.
func (s *Scheduler) LaneCancel(lane int, e *Event) {
	if !s.spec || lane < 0 {
		s.Cancel(e)
		return
	}
	if e == nil || e.fired || e.cancel {
		return
	}
	e.cancel = true
}

// RunLane drains one lane of the open window: the lane's share of the
// extracted events (which must be a subsequence of an ExtractUntil
// result, so it is (time, seq)-sorted) merged with events the lane's own
// callbacks create, fired in local (time, seq) order up to and including
// barrier. The drain stops early if the lane is flagged conflicted.
// Must be called at most once per lane per window, from at most one
// goroutine per lane.
func (s *Scheduler) RunLane(lane int, extracted []*Event, barrier Time) {
	if !s.spec {
		panic("sim: RunLane outside a speculative window")
	}
	ln := &s.specLanes[lane]
	ci := 0
	for !ln.conflict {
		// Skip extracted events cancelled earlier in the window. Their
		// live accounting happened at extraction; the record is free to
		// reuse immediately because nothing references it any more.
		for ci < len(extracted) && extracted[ci].cancel {
			recycleInto(&ln.free, extracted[ci])
			ci++
		}
		var ex *Event
		if ci < len(extracted) {
			ex = extracted[ci]
		}
		// Lazily drop cancelled lane-created events; their journal
		// entries keep them alive until commit.
		for len(ln.heap) > 0 && ln.heap[0].cancel {
			heap.Pop(&ln.heap)
		}
		var cr *Event
		if len(ln.heap) > 0 && ln.heap[0].at <= barrier {
			cr = ln.heap[0]
		}
		var e *Event
		switch {
		case ex == nil && cr == nil:
			if ln.now < barrier {
				ln.now = barrier
			}
			return
		case cr == nil:
			e = ex
			ci++
		case ex == nil || cr.at < ex.at || (cr.at == ex.at && cr.seq < ex.seq):
			e = cr
			heap.Pop(&ln.heap)
		default:
			e = ex
			ci++
		}
		ln.now = e.at
		e.fired = true
		ln.fired = append(ln.fired, e)
		e.runner.RunEvent()
	}
}

// CommitSpec validates and closes the open window. On success it returns
// true with the scheduler byte-identical to a sequential execution of
// the window (see the package comment above for the argument) and the
// clock at barrier. On failure — a flagged conflict or a cross-lane
// same-timestamp firing — it returns false with the scheduler left in an
// unusable state; the caller must discard it and replay the window from
// a checkpoint.
func (s *Scheduler) CommitSpec(barrier Time) bool {
	if !s.spec {
		panic("sim: CommitSpec without an open window")
	}
	for i := range s.specLanes {
		if s.specLanes[i].conflict {
			return false
		}
	}
	if !s.firedTieFree() {
		return false
	}
	s.spec = false
	s.commitCreated()
	for i := range s.specLanes {
		ln := &s.specLanes[i]
		s.executed += uint64(len(ln.fired))
		for _, e := range ln.fired {
			// Extracted events (shared-namespace seq) are done with;
			// fired lane-created events were recycled by commitCreated.
			if e.seq < laneSeqBase(0) {
				recycleInto(&s.free, e)
			}
		}
		clearEvents(ln.fired)
		ln.fired = ln.fired[:0]
		clearEvents(ln.heap)
		ln.heap = ln.heap[:0]
		clearEvents(ln.created)
		ln.created = ln.created[:0]
		ln.createdAt = ln.createdAt[:0]
		s.poolHits += ln.poolHits
		s.poolMisses += ln.poolMisses
		ln.poolHits, ln.poolMisses = 0, 0
	}
	if s.now < barrier {
		s.now = barrier
	}
	return true
}

// firedTieFree reports whether no two lanes fired events at the same
// timestamp. Each lane's fired list is (time, seq)-sorted, so a k-way
// scan by timestamp finds every cross-lane tie in one pass.
func (s *Scheduler) firedTieFree() bool {
	k := len(s.specLanes)
	idx := s.specScratch(k)
	for {
		best := -1
		var bestAt Time
		ties := 0
		for i := 0; i < k; i++ {
			ln := &s.specLanes[i]
			if idx[i] >= len(ln.fired) {
				continue
			}
			at := ln.fired[idx[i]].at
			switch {
			case best < 0 || at < bestAt:
				best, bestAt, ties = i, at, 1
			case at == bestAt:
				ties++
			}
		}
		if best < 0 {
			return true
		}
		if ties > 1 {
			return false
		}
		ln := &s.specLanes[best]
		for idx[best] < len(ln.fired) && ln.fired[idx[best]].at == bestAt {
			idx[best]++
		}
	}
}

// commitCreated replays the window's schedule calls against the shared
// sequence counter in global creation order: a k-way merge of the
// per-lane creation journals by creation timestamp (distinct across
// lanes in a validated window; journal order within a lane). Dead
// entries consume their number and recycle; survivors are renumbered
// and inserted into the ladder.
func (s *Scheduler) commitCreated() {
	k := len(s.specLanes)
	idx := s.specScratch(k)
	for {
		best := -1
		var bestAt Time
		for i := 0; i < k; i++ {
			ln := &s.specLanes[i]
			if idx[i] >= len(ln.created) {
				continue
			}
			at := ln.createdAt[idx[i]]
			if best < 0 || at < bestAt {
				best, bestAt = i, at
			}
		}
		if best < 0 {
			return
		}
		ln := &s.specLanes[best]
		e := ln.created[idx[best]]
		idx[best]++
		if s.seq >= laneSeqBase(0)-1 {
			panic("sim: shared sequence counter exhausted its namespace")
		}
		s.seq++
		if e.fired || e.cancel {
			recycleInto(&s.free, e)
			continue
		}
		e.seq = s.seq
		s.lq.insert(e)
		s.live++
	}
}

// specScratch returns the zeroed k-element cursor scratch the commit
// walks share.
func (s *Scheduler) specScratch(k int) []int {
	if cap(s.specIdx) < k {
		s.specIdx = make([]int, k)
	}
	s.specIdx = s.specIdx[:k]
	for i := range s.specIdx {
		s.specIdx[i] = 0
	}
	return s.specIdx
}

// laneHeap is a speculative lane's private queue of the events its
// callbacks create, ordered by (at, seq). The lane only pushes and pops
// (cancelled events are dropped lazily at the top), so unlike a queue
// with eager removal it keeps no per-event position.
type laneHeap []*Event

func (h laneHeap) Len() int           { return len(h) }
func (h laneHeap) Less(i, j int) bool { return eventCmp(h[i], h[j]) < 0 }
func (h laneHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *laneHeap) Push(x any)        { *h = append(*h, x.(*Event)) }

func (h *laneHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
