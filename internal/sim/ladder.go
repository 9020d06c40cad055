package sim

import "slices"

// The ladder queue (Tang, Goh & Thng 2005) is a multi-resolution calendar
// queue for discrete-event simulation. Far-future events land in an
// unsorted Top list; when Top must be consumed it is partitioned into a
// rung of equal-width time buckets, and any bucket still too crowded to
// sort cheaply spawns a finer child rung. The imminent events live in
// Bottom, a small sorted array consumed from the head. Enqueue and dequeue
// are amortized O(1) for the arrival patterns a CSMA/CA simulation
// produces, against O(log n) for a binary heap.
//
// The per-bucket sort in refill is also the fallback for pathological
// distributions: when every event carries the same timestamp (or rung
// nesting bottoms out at 1µs-wide buckets, the clock resolution) the
// overflow bucket cannot be split further and is handed to slices.SortFunc
// wholesale, degrading gracefully to O(n log n) — the same bound as the
// heap it replaces.
//
// Determinism: events are ordered by (at, seq) everywhere — the bucket
// sort compares seq on time ties, Bottom insertion places a new event
// after queued ties (its seq is necessarily the largest), and buckets
// preserve append order until sorted. The pop sequence is therefore
// byte-identical to a binary heap's: TestLadderMatchesHeapStress holds the
// ladder to the reference heap in ladder_test.go, and
// internal/manet/testdata/summaries.golden, recorded while models still
// ran on a heap, pins the same at model level.
const (
	// ladderThreshold is the bucket population above which refill spawns
	// a finer rung instead of sorting the bucket into Bottom.
	ladderThreshold = 48
	// ladderMaxRungs caps rung nesting; once reached, overflowing buckets
	// are sorted wholesale (the heap-equivalent fallback).
	ladderMaxRungs = 8
)

// rung is one ladder level: a run of equal-width time buckets covering
// [start, start+len(buckets)*width). cur is the first bucket that may
// still hold events; buckets before it have been consumed.
type rung struct {
	start   Time
	width   Duration
	cur     int
	buckets [][]*Event
}

// base returns the earliest time an event may still occupy in this rung.
// Events before base belong to finer rungs or Bottom.
func (r *rung) base() Time { return r.start.Add(Duration(r.cur) * r.width) }

// reset prepares a (possibly recycled) rung with nb empty buckets.
func (r *rung) reset(start Time, width Duration, nb int) {
	r.start, r.width, r.cur = start, width, 0
	if cap(r.buckets) < nb {
		r.buckets = append(r.buckets[:cap(r.buckets)], make([][]*Event, nb-cap(r.buckets))...)
	}
	r.buckets = r.buckets[:nb]
	for i := range r.buckets {
		r.buckets[i] = r.buckets[i][:0]
	}
}

// ladder is the queue proper. Invariants between operations:
//
//   - every queued event is in exactly one of bottom[head:], a rung
//     bucket at index >= cur, or top;
//   - bottom[head:] is sorted by (at, seq) and holds the earliest events:
//     every bottom time < every rung/top time still queued;
//   - rungs are ordered coarsest first and strictly nested in time: each
//     rung's live range [base, end) precedes every earlier rung's base,
//     so the last rung always holds the most imminent buckets;
//   - top holds exactly the events with at >= topStart, and topStart
//     exceeds every time in bottom or the rungs.
//
// Tombstoned (cancelled) events stay in place and are dropped and
// recycled when their bucket or slot is next touched.
type ladder struct {
	bottom []*Event
	head   int

	rungs []*rung

	top      []*Event
	topStart Time

	rungFree []*rung
}

func eventCmp(a, b *Event) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	if a.seq < b.seq {
		return -1
	}
	return 1 // seq values are unique; equality is impossible
}

// insert routes a freshly scheduled event to Top, a rung bucket, or a
// sorted position in Bottom, whichever covers its timestamp.
func (q *ladder) insert(e *Event) {
	if e.at >= q.topStart {
		q.top = append(q.top, e)
		return
	}
	// Walk coarsest→finest: the first rung whose live range starts at or
	// before e.at owns it (finer rungs cover strictly earlier times).
	for _, r := range q.rungs {
		if e.at >= r.base() {
			idx := int(int64(e.at-r.start) / int64(r.width))
			if idx >= len(r.buckets) {
				idx = len(r.buckets) - 1
			}
			r.buckets[idx] = append(r.buckets[idx], e)
			return
		}
	}
	// Earlier than every rung: sorted insert into Bottom. The new event
	// has the largest seq, so on a time tie it lands after queued events,
	// preserving FIFO.
	lo, hi := q.head, len(q.bottom)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventCmp(q.bottom[mid], e) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.bottom = append(q.bottom, nil)
	copy(q.bottom[lo+1:], q.bottom[lo:])
	q.bottom[lo] = e
}

// pop removes and returns the earliest live event, recycling any
// tombstones it skips over, or nil when the queue is empty.
func (q *ladder) pop(s *Scheduler) *Event {
	for {
		for q.head < len(q.bottom) {
			e := q.bottom[q.head]
			q.bottom[q.head] = nil
			q.head++
			if e.cancel {
				s.recycle(e)
				continue
			}
			return e
		}
		if !q.refill(s) {
			return nil
		}
	}
}

// peek returns the timestamp of the earliest live event without removing
// it. Tombstones encountered at the head are recycled along the way.
func (q *ladder) peek(s *Scheduler) (Time, bool) {
	e, ok := q.peekEvent(s)
	if !ok {
		return 0, false
	}
	return e.at, true
}

// peekEvent returns the earliest live event without removing it; the
// scheduler's merged pop reads its (at, seq) key to compare against the
// shard wheel heads. Tombstones at the head are recycled along the way.
func (q *ladder) peekEvent(s *Scheduler) (*Event, bool) {
	for {
		for q.head < len(q.bottom) {
			e := q.bottom[q.head]
			if e.cancel {
				q.bottom[q.head] = nil
				q.head++
				s.recycle(e)
				continue
			}
			return e, true
		}
		if !q.refill(s) {
			return nil, false
		}
	}
}

// refill repopulates the exhausted Bottom from the finest rung's next
// bucket (spawning finer rungs from overcrowded buckets, and rung 0 from
// Top when all rungs are spent). Returns false when no events remain.
func (q *ladder) refill(s *Scheduler) bool {
	q.bottom = q.bottom[:0]
	q.head = 0
	for {
		r := q.activeRung(s)
		if r == nil {
			return false
		}
		b := r.buckets[r.cur]
		live := b[:0]
		for _, e := range b {
			if e.cancel {
				s.recycle(e)
			} else {
				live = append(live, e)
			}
		}
		if len(live) == 0 {
			r.buckets[r.cur] = live
			r.cur++
			continue
		}
		if len(live) > ladderThreshold && r.width > 1 && len(q.rungs) < ladderMaxRungs {
			// Too crowded to sort: spread over a finer child rung. The
			// parent's cur must advance past the bucket before the child
			// becomes visible, so insert's rung walk stays consistent.
			child := q.newRung(r.base(), r.width, len(live))
			for _, e := range live {
				idx := int(int64(e.at-child.start) / int64(child.width))
				if idx >= len(child.buckets) {
					idx = len(child.buckets) - 1
				}
				child.buckets[idx] = append(child.buckets[idx], e)
			}
			r.buckets[r.cur] = live[:0]
			r.cur++
			q.rungs = append(q.rungs, child)
			continue
		}
		q.bottom = append(q.bottom, live...)
		r.buckets[r.cur] = live[:0]
		r.cur++
		slices.SortFunc(q.bottom, eventCmp)
		return true
	}
}

// activeRung returns the finest rung positioned on a non-empty bucket,
// discarding exhausted rungs and spawning rung 0 from Top as needed.
// Returns nil when the whole queue is empty.
func (q *ladder) activeRung(s *Scheduler) *rung {
	for {
		if n := len(q.rungs); n > 0 {
			r := q.rungs[n-1]
			for r.cur < len(r.buckets) && len(r.buckets[r.cur]) == 0 {
				r.cur++
			}
			if r.cur < len(r.buckets) {
				return r
			}
			q.rungs = q.rungs[:n-1]
			q.putRung(r)
			continue
		}
		if !q.spawnFromTop(s) {
			return nil
		}
	}
}

// spawnFromTop partitions the live events in Top into a fresh rung 0 and
// advances topStart past them. Returns false if Top held no live events,
// which (called with no rungs and an empty Bottom) means the queue is
// empty; topStart then resets so the next insert starts a fresh epoch.
func (q *ladder) spawnFromTop(s *Scheduler) bool {
	live := q.top[:0]
	var min, max Time
	for _, e := range q.top {
		if e.cancel {
			s.recycle(e)
			continue
		}
		if len(live) == 0 || e.at < min {
			min = e.at
		}
		if len(live) == 0 || e.at > max {
			max = e.at
		}
		live = append(live, e)
	}
	if len(live) == 0 {
		q.top = q.top[:0]
		q.topStart = 0
		return false
	}
	r := q.newRung(min, Duration(max-min), len(live))
	for _, e := range live {
		idx := int(int64(e.at-r.start) / int64(r.width))
		if idx >= len(r.buckets) {
			idx = len(r.buckets) - 1
		}
		r.buckets[idx] = append(r.buckets[idx], e)
	}
	q.top = q.top[:0]
	q.rungs = append(q.rungs, r)
	q.topStart = max + 1
	return true
}

// newRung sizes a rung to cover span time units with roughly one live
// event per bucket: width = span/n clamped to the 1µs clock resolution,
// and one extra bucket so every time in [start, start+span] maps inside.
func (q *ladder) newRung(start Time, span Duration, n int) *rung {
	width := span / Duration(n)
	if width < 1 {
		width = 1
	}
	nb := int(int64(span)/int64(width)) + 1
	r := q.getRung()
	r.reset(start, width, nb)
	return r
}

// drain tombstones and recycles every queued event and resets the
// structure to empty, retaining backing storage.
func (q *ladder) drain(s *Scheduler) {
	for i := q.head; i < len(q.bottom); i++ {
		e := q.bottom[i]
		q.bottom[i] = nil
		e.cancel = true
		s.recycle(e)
	}
	q.bottom = q.bottom[:0]
	q.head = 0
	for i := len(q.rungs) - 1; i >= 0; i-- {
		r := q.rungs[i]
		for bi := r.cur; bi < len(r.buckets); bi++ {
			for _, e := range r.buckets[bi] {
				e.cancel = true
				s.recycle(e)
			}
			r.buckets[bi] = r.buckets[bi][:0]
		}
		q.putRung(r)
	}
	q.rungs = q.rungs[:0]
	for _, e := range q.top {
		e.cancel = true
		s.recycle(e)
	}
	q.top = q.top[:0]
	q.topStart = 0
}

func (q *ladder) getRung() *rung {
	if n := len(q.rungFree); n > 0 {
		r := q.rungFree[n-1]
		q.rungFree = q.rungFree[:n-1]
		return r
	}
	return &rung{}
}

func (q *ladder) putRung(r *rung) {
	if len(q.rungFree) <= ladderMaxRungs {
		q.rungFree = append(q.rungFree, r)
	}
}
