package sim

import (
	"fmt"
	"slices"
)

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
// Storage: Top and every rung bucket are chains threaded through
// Event.next, the linked-list buckets of Tang et al., so an insert
// allocates nothing and a consumed bucket leaves one nil head word
// behind. What the ladder retains is one head per bucket of its rungs
// plus Bottom (which doubles as the scratch a chain is walked into),
// each bounded by the most events ever pending at once — not by how
// many events the run has executed.
//
// Determinism: events are ordered by (at, seq) everywhere — the bucket
// sort compares seq on time ties and Bottom insertion places a new event
// after queued ties (its seq is necessarily the largest). The key is
// unique, so the order of events within a chain is irrelevant and the
// pop sequence is byte-identical to a binary heap's:
// TestLadderMatchesHeapStress holds the ladder to the reference heap in
// ladder_test.go, and internal/manet/testdata/summaries.golden, recorded
// while models still ran on a heap, pins the same at model level.
const (
	// ladderThreshold is the bucket population above which refill spawns
	// a finer rung instead of sorting the bucket into Bottom.
	ladderThreshold = 48
	// ladderMaxRungs caps rung nesting; once reached, overflowing buckets
	// are sorted wholesale (the heap-equivalent fallback).
	ladderMaxRungs = 8
)

// rung is one ladder level: a run of equal-width time buckets covering
// [start, start+len(heads)*width), each the head of a chain of events.
// cur is the first bucket that may still hold events; buckets before it
// have been consumed and are nil.
type rung struct {
	start Time
	width Duration
	cur   int
	heads []*Event
}

// base returns the earliest time an event may still occupy in this rung.
// Events before base belong to finer rungs or Bottom.
func (r *rung) base() Time { return r.start.Add(Duration(r.cur) * r.width) }

// reset prepares a (possibly recycled) rung with nb empty buckets.
func (r *rung) reset(start Time, width Duration, nb int) {
	r.start, r.width, r.cur = start, width, 0
	r.heads = slices.Grow(r.heads[:0], nb)[:nb]
	clear(r.heads)
}

// add chains e onto the bucket covering its timestamp; a time past the
// last bucket's start joins the last bucket.
func (r *rung) add(e *Event) {
	idx := int(int64(e.at-r.start) / int64(r.width))
	if idx >= len(r.heads) {
		idx = len(r.heads) - 1
	}
	e.next = r.heads[idx]
	r.heads[idx] = e
}

// ladder is the queue proper. Invariants between operations:
//
//   - every queued event is in exactly one of bottom[head:], the chain
//     of a rung bucket at index >= cur, or the top chain;
//   - an event's next link is nil unless it sits in a chain;
//   - bottom[head:] is sorted by (at, seq) and holds the earliest events:
//     every bottom time < every rung/top time still queued;
//   - rungs are ordered coarsest first and strictly nested in time: each
//     rung's live range [base, end) precedes every earlier rung's base,
//     so the last rung always holds the most imminent buckets;
//   - top holds exactly the events with at >= topStart, and topStart
//     exceeds every time in bottom or the rungs.
//
// Tombstoned (cancelled) events stay in place and are dropped and
// recycled when their bucket or slot is next touched. A Keyed event may
// sit at a key earlier than its owner's current one; it is moved to the
// current key when it reaches the head of Bottom (rekeyHead), so it
// fires only at a key its owner still reports.
type ladder struct {
	bottom []*Event
	head   int

	// rungs[:depth] are live, coarsest first. A spent rung keeps its
	// bucket heads for the next rung spawned at its depth.
	rungs [ladderMaxRungs]rung
	depth int

	top      *Event
	topStart Time
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
		e.next = q.top
		q.top = e
		return
	}
	// Walk coarsest→finest: the first rung whose live range starts at or
	// before e.at owns it (finer rungs cover strictly earlier times).
	for i := range q.depth {
		if r := &q.rungs[i]; e.at >= r.base() {
			r.add(e)
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
			if e.keyed && !e.cancel && q.rekeyHead(e) {
				continue
			}
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
			if e.keyed && q.rekeyHead(e) {
				continue
			}
			return e, true
		}
		if !q.refill(s) {
			return nil, false
		}
	}
}

// rekeyHead checks the keyed event e at the head of Bottom against the
// key its owner reports now. If the key moved later, e is taken off the
// head and re-inserted at the new key, and rekeyHead reports true; that
// move is not a firing. A key that moved earlier panics.
func (q *ladder) rekeyHead(e *Event) bool {
	at, seq := e.runner.(Keyed).EventKey()
	if at == e.at && seq == e.seq {
		return false
	}
	if at < e.at || at == e.at && seq < e.seq {
		panic(fmt.Sprintf("sim: keyed event moved back from (%v, %d) to (%v, %d)", e.at, e.seq, at, seq))
	}
	q.bottom[q.head] = nil
	q.head++
	e.at, e.seq = at, seq
	q.insert(e)
	return true
}

// collect unlinks the chain starting at e, appending its live events to
// Bottom and recycling its tombstones.
func (q *ladder) collect(s *Scheduler, e *Event) {
	for e != nil {
		next := e.next
		e.next = nil
		if e.cancel {
			s.recycle(e)
		} else {
			q.bottom = append(q.bottom, e)
		}
		e = next
	}
}

// spread chains every event collected in Bottom onto r's buckets and
// empties Bottom again.
func (q *ladder) spread(r *rung) {
	for _, e := range q.bottom {
		r.add(e)
	}
	clear(q.bottom)
	q.bottom = q.bottom[:0]
}

// refill repopulates the exhausted Bottom from the finest rung's next
// bucket (spawning finer rungs from overcrowded buckets, and rung 0 from
// Top when all rungs are spent). Bottom is the scratch every chain is
// collected into. Returns false when no events remain.
func (q *ladder) refill(s *Scheduler) bool {
	q.bottom = q.bottom[:0]
	q.head = 0
	for {
		r := q.activeRung(s)
		if r == nil {
			return false
		}
		// The bucket is consumed before any child rung becomes visible,
		// so insert's rung walk stays consistent.
		base := r.base()
		q.collect(s, r.heads[r.cur])
		r.heads[r.cur] = nil
		r.cur++
		n := len(q.bottom)
		if n == 0 {
			continue
		}
		if n > ladderThreshold && r.width > 1 && q.depth < ladderMaxRungs {
			// Too crowded to sort: spread over a finer child rung.
			q.spread(q.pushRung(base, r.width, n))
			continue
		}
		slices.SortFunc(q.bottom, eventCmp)
		return true
	}
}

// activeRung returns the finest rung positioned on a non-empty bucket,
// discarding exhausted rungs and spawning rung 0 from Top as needed.
// Returns nil when the whole queue is empty.
func (q *ladder) activeRung(s *Scheduler) *rung {
	for {
		if q.depth > 0 {
			r := &q.rungs[q.depth-1]
			for r.cur < len(r.heads) && r.heads[r.cur] == nil {
				r.cur++
			}
			if r.cur < len(r.heads) {
				return r
			}
			q.depth--
			continue
		}
		if !q.spawnFromTop(s) {
			return nil
		}
	}
}

// spawnFromTop partitions the live events in Top into a fresh rung 0 and
// advances topStart past them. It runs inside refill, with Bottom empty.
// Returns false if Top held no live events, which (called with no rungs
// and an empty Bottom) means the queue is empty; topStart then resets so
// the next insert starts a fresh epoch.
func (q *ladder) spawnFromTop(s *Scheduler) bool {
	q.collect(s, q.top)
	q.top = nil
	if len(q.bottom) == 0 {
		q.topStart = 0
		return false
	}
	lo, hi := q.bottom[0].at, q.bottom[0].at
	for _, e := range q.bottom[1:] {
		lo, hi = min(lo, e.at), max(hi, e.at)
	}
	q.spread(q.pushRung(lo, Duration(hi-lo), len(q.bottom)))
	q.topStart = hi + 1
	return true
}

// pushRung makes the next depth's rung the finest, sized to cover span
// time units with roughly one live event per bucket: width = span/n
// clamped to the 1µs clock resolution, and one extra bucket so every
// time in [start, start+span] maps inside.
func (q *ladder) pushRung(start Time, span Duration, n int) *rung {
	width := span / Duration(n)
	if width < 1 {
		width = 1
	}
	r := &q.rungs[q.depth]
	q.depth++
	r.reset(start, width, int(int64(span)/int64(width))+1)
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
	for i := q.depth - 1; i >= 0; i-- {
		r := &q.rungs[i]
		for bi := r.cur; bi < len(r.heads); bi++ {
			cancelChain(s, r.heads[bi])
			r.heads[bi] = nil
		}
	}
	q.depth = 0
	cancelChain(s, q.top)
	q.top = nil
	q.topStart = 0
}

// cancelChain tombstones, unlinks and recycles every event of the chain
// starting at e.
func cancelChain(s *Scheduler, e *Event) {
	for e != nil {
		next := e.next
		e.next = nil
		e.cancel = true
		s.recycle(e)
		e = next
	}
}
