package sim

import "slices"

// shardWheel is a fixed-width calendar queue owned by one shard of a
// sharded simulation. Shard-local timers (mobility turns, mostly) are
// routed here instead of the central ladder so the ladder stays small
// enough to keep its rungs dense: 100k standing turn timers spread over a
// [1,100]s horizon degrade a single ladder rung to ~1 event per bucket,
// while a wheel with second-wide buckets keeps hundreds of events per
// bucket.
//
// Buckets are indexed by absolute time (at/width) from time zero — the
// wheel never wraps, it grows. That is the right trade for a finite
// simulation: the bucket array tops out at horizon/width head words (a
// few hundred for the configurations we run) and indexing needs no ring
// arithmetic. Each bucket is a chain threaded through Event.next, as in
// the ladder, so a consumed bucket leaves only its nil head behind; the
// bucket being consumed is materialised into run, the one slice the
// wheel reuses across the run.
//
// Ordering contract: events pop in strict (at, seq) order. A bucket is
// sorted into run lazily when consumption reaches it; inserts into the
// bucket currently being consumed do a binary-search insert into run at
// or after the consumption head (an insert's at is >= now, so its
// position can never precede the head). The scheduler merges wheel heads
// with the ladder head by the same (at, seq) key, which makes the merged
// pop sequence byte-identical to routing every event through the single
// ladder.
type shardWheel struct {
	width  Duration
	heads  []*Event // bucket chains, indexed by at/width
	cur    int      // bucket being consumed (or next to consume)
	run    []*Event // bucket cur, sorted, while sorted is set
	head   int      // consumption index within run
	sorted bool     // bucket cur has been moved into run and is being consumed
}

// insert routes e into the bucket covering its timestamp. Buckets the
// consumption pointer has already passed were empty or fully consumed;
// an event whose natural index lies behind cur (possible when the clock
// ran ahead through a locally idle stretch) joins the current bucket,
// where the (at, seq) sort still emits it in correct global order.
func (w *shardWheel) insert(e *Event) {
	idx := int(int64(e.at) / int64(w.width))
	if idx < w.cur {
		idx = w.cur
	}
	if idx == w.cur && w.sorted {
		lo, hi := w.head, len(w.run)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if eventCmp(w.run[mid], e) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		w.run = append(w.run, nil)
		copy(w.run[lo+1:], w.run[lo:])
		w.run[lo] = e
		return
	}
	for idx >= len(w.heads) {
		w.heads = append(w.heads, nil)
	}
	e.next = w.heads[idx]
	w.heads[idx] = e
}

// peek returns the earliest live event without removing it, recycling
// tombstones into the shared free-list.
func (w *shardWheel) peek(s *Scheduler) (*Event, bool) { return w.peekInto(&s.free) }

// peekInto is peek with the tombstone destination made explicit, so a
// parallel shard drain can recycle into its own lane's free-list instead
// of the shared one. The consumption pointers only move forward, so
// repeated peeks are O(1) amortized over the life of the wheel.
func (w *shardWheel) peekInto(free *[]*Event) (*Event, bool) {
	for w.cur < len(w.heads) {
		if !w.sorted {
			for e := w.heads[w.cur]; e != nil; {
				next := e.next
				e.next = nil
				w.run = append(w.run, e)
				e = next
			}
			w.heads[w.cur] = nil
			if len(w.run) > 1 {
				slices.SortFunc(w.run, eventCmp)
			}
			w.sorted = true
			w.head = 0
		}
		for w.head < len(w.run) {
			e := w.run[w.head]
			if e.cancel {
				w.run[w.head] = nil
				w.head++
				recycleInto(free, e)
				continue
			}
			return e, true
		}
		w.run = w.run[:0]
		w.head = 0
		w.sorted = false
		w.cur++
	}
	return nil, false
}

// take removes the event a preceding peek returned. It must only be
// called immediately after a successful peek.
func (w *shardWheel) take() {
	w.run[w.head] = nil
	w.head++
}

// drain tombstones and recycles every queued event and resets the wheel
// to empty, retaining bucket storage.
func (w *shardWheel) drain(s *Scheduler) {
	for _, e := range w.run[w.head:] {
		e.cancel = true
		s.recycle(e)
	}
	clear(w.run)
	w.run = w.run[:0]
	for i := w.cur; i < len(w.heads); i++ {
		cancelChain(s, w.heads[i])
		w.heads[i] = nil
	}
	w.cur = len(w.heads)
	w.head = 0
	w.sorted = false
}
