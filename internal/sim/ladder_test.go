package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// eventQueue is what the ordering-contract tests need of an event queue:
// the Scheduler and refQueue both provide it.
type eventQueue interface {
	Now() Time
	Schedule(at Time, fn func()) *Event
	After(d Duration, fn func()) *Event
	Cancel(e *Event)
	Step() bool
	Run()
	RunUntil(deadline Time)
	Pending() int
	Drain() int
}

// refQueue is the reference the ladder queue is held to: a binary heap
// ordered by (at, seq) with eager removal on cancel and a fresh Event per
// schedule — the scheduler's queue before the ladder replaced it.
type refQueue struct {
	now Time
	seq uint64
	h   []*Event
	pos map[*Event]int // heap index of every queued event
}

func newRefQueue() *refQueue { return &refQueue{pos: map[*Event]int{}} }

func (q *refQueue) Len() int { return len(q.h) }

func (q *refQueue) Less(i, j int) bool {
	a, b := q.h[i], q.h[j]
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (q *refQueue) Swap(i, j int) {
	q.h[i], q.h[j] = q.h[j], q.h[i]
	q.pos[q.h[i]], q.pos[q.h[j]] = i, j
}

func (q *refQueue) Push(x any) {
	e := x.(*Event)
	q.pos[e] = len(q.h)
	q.h = append(q.h, e)
}

func (q *refQueue) Pop() any {
	e := q.h[len(q.h)-1]
	q.h = q.h[:len(q.h)-1]
	delete(q.pos, e)
	return e
}

func (q *refQueue) Now() Time { return q.now }

func (q *refQueue) Schedule(at Time, fn func()) *Event {
	if at < q.now {
		panic(fmt.Sprintf("ref: schedule at %v before now %v", at, q.now))
	}
	q.seq++
	e := &Event{at: at, seq: q.seq, fn: fn}
	heap.Push(q, e)
	return e
}

func (q *refQueue) After(d Duration, fn func()) *Event { return q.Schedule(q.now.Add(d), fn) }

func (q *refQueue) Cancel(e *Event) {
	if e == nil || e.fired || e.cancel {
		return
	}
	e.cancel = true
	if i, ok := q.pos[e]; ok {
		heap.Remove(q, i)
	}
}

func (q *refQueue) Step() bool {
	if len(q.h) == 0 {
		return false
	}
	e := heap.Pop(q).(*Event)
	q.now = e.at
	e.fired = true
	e.fn()
	return true
}

func (q *refQueue) Run() {
	for q.Step() {
	}
}

func (q *refQueue) RunUntil(deadline Time) {
	for len(q.h) > 0 && q.h[0].at <= deadline {
		q.Step()
	}
	if q.now < deadline {
		q.now = deadline
	}
}

func (q *refQueue) Pending() int { return len(q.h) }

func (q *refQueue) Drain() int {
	n := len(q.h)
	for _, e := range q.h {
		e.cancel = true
		delete(q.pos, e)
	}
	q.h = q.h[:0]
	return n
}

// bothSchedulers runs a subtest against the ladder-backed Scheduler and
// the reference heap, since every ordering contract must hold for both.
func bothSchedulers(t *testing.T, f func(t *testing.T, newSched func() eventQueue)) {
	t.Run("ladder", func(t *testing.T) { f(t, func() eventQueue { return NewScheduler() }) })
	t.Run("heap", func(t *testing.T) { f(t, func() eventQueue { return newRefQueue() }) })
}

func TestScheduleAtNow(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, newSched func() eventQueue) {
		s := newSched()
		var got []int
		s.Schedule(10, func() {
			got = append(got, 1)
			// Scheduling at the current instant from inside an event must
			// fire after every previously queued same-instant event.
			s.Schedule(s.Now(), func() { got = append(got, 3) })
			s.After(0, func() { got = append(got, 4) })
		})
		s.Schedule(10, func() { got = append(got, 2) })
		s.Run()
		want := []int{1, 2, 3, 4}
		if len(got) != len(want) {
			t.Fatalf("fired %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fired %v, want %v", got, want)
			}
		}
		if s.Now() != 10 {
			t.Errorf("clock = %v, want 10", s.Now())
		}
	})
}

func TestCancelThenStep(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, newSched func() eventQueue) {
		s := newSched()
		fired := 0
		e1 := s.Schedule(5, func() { fired++ })
		s.Schedule(5, func() { fired++ })
		e3 := s.Schedule(7, func() { fired++ })
		s.Cancel(e1)
		s.Cancel(e3)
		if got := s.Pending(); got != 1 {
			t.Fatalf("Pending = %d after cancels, want 1", got)
		}
		if !s.Step() {
			t.Fatal("Step returned false with a live event queued")
		}
		if fired != 1 {
			t.Fatalf("fired %d events, want 1", fired)
		}
		if s.Now() != 5 {
			t.Errorf("clock = %v, want 5 (cancelled head must not advance it)", s.Now())
		}
		if s.Step() {
			t.Error("Step returned true with only tombstones left")
		}
		if got := s.Pending(); got != 0 {
			t.Errorf("Pending = %d after drain, want 0", got)
		}
	})
}

// TestSameInstantFIFOAcrossBuckets forces the ladder to split a large
// population across Top, rungs, and Bottom while many events share
// timestamps, checking that same-instant FIFO survives every bucket
// boundary. The schedule interleaves pops so refills happen mid-stream.
func TestSameInstantFIFOAcrossBuckets(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, newSched func() eventQueue) {
		s := newSched()
		type fire struct {
			at  Time
			ord int
		}
		var got []fire
		ord := 0
		add := func(at Time) {
			ord++
			n := ord
			s.Schedule(at, func() { got = append(got, fire{s.Now(), n}) })
		}
		rng := rand.New(rand.NewSource(7))
		// Dense collisions: ~1500 events over only 97 distinct instants,
		// far more than one rung bucket holds.
		for i := 0; i < 1500; i++ {
			add(Time(rng.Intn(97)))
		}
		// Interleave: consume a few, then schedule more at already-queued
		// instants so inserts land in live rungs and in Bottom.
		for i := 0; i < 40; i++ {
			s.Step()
		}
		for i := 0; i < 500; i++ {
			add(s.Now().Add(Duration(rng.Intn(60))))
		}
		s.Run()
		if len(got) != 2000 {
			t.Fatalf("fired %d events, want 2000", len(got))
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if b.at < a.at || (b.at == a.at && b.ord < a.ord) {
				t.Fatalf("order violated at %d: (%v,#%d) before (%v,#%d)",
					i, a.at, a.ord, b.at, b.ord)
			}
		}
	})
}

func TestRescheduleAfterDrain(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, newSched func() eventQueue) {
		s := newSched()
		stale := 0
		var handles []*Event
		for i := 0; i < 200; i++ {
			handles = append(handles, s.Schedule(Time(100+i), func() { stale++ }))
		}
		for i := 0; i < 50; i++ {
			s.Step()
		}
		if n := s.Drain(); n != 150 {
			t.Fatalf("Drain discarded %d events, want 150", n)
		}
		if s.Pending() != 0 {
			t.Fatalf("Pending = %d after Drain, want 0", s.Pending())
		}
		for _, e := range handles[50:] {
			if !e.Cancelled() {
				t.Fatal("drained event not marked cancelled")
				break
			}
		}
		if s.Now() != 149 {
			t.Fatalf("clock = %v after Drain, want 149 (unchanged)", s.Now())
		}
		// The scheduler must accept and correctly order a fresh workload.
		var got []Time
		for _, at := range []Time{500, 300, 400, 300} {
			s.Schedule(at, func() { got = append(got, s.Now()) })
		}
		s.Run()
		if stale != 50 {
			t.Errorf("drained events fired: %d callbacks ran, want 50 pre-drain only", stale)
		}
		want := []Time{300, 300, 400, 500}
		if len(got) != len(want) {
			t.Fatalf("post-drain run fired %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("post-drain run fired %v, want %v", got, want)
			}
		}
		if s.Drain() != 0 {
			t.Error("Drain on an empty scheduler reported discarded events")
		}
	})
}

// TestLadderMatchesHeapStress drives the ladder-backed Scheduler and the
// reference heap with an identical randomized schedule/cancel/nested-
// schedule workload and requires the firing sequences to match exactly —
// the queue-level half of the determinism obligation (the model-level
// half is internal/manet/testdata/summaries.golden, recorded while models
// still ran on the heap).
func TestLadderMatchesHeapStress(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		run := func(s eventQueue) []uint64 {
			rng := rand.New(rand.NewSource(seed))
			var fired []uint64
			// Handles are recycled once fired under the ladder scheduler,
			// so liveness is tracked on the side (the pooling contract).
			type handle struct {
				e    *Event
				done bool
			}
			var open []*handle
			var id uint64
			schedule := func(at Time) {
				id++
				n := id
				h := &handle{}
				h.e = s.Schedule(at, func() {
					h.done = true
					fired = append(fired, n)
					// Nested activity: sometimes schedule or cancel.
					if rng.Intn(3) == 0 {
						schedDelta := Duration(rng.Intn(5000))
						id++
						m := id
						s.After(schedDelta, func() { fired = append(fired, m) })
					}
					if len(open) > 0 && rng.Intn(4) == 0 {
						if c := open[rng.Intn(len(open))]; !c.done {
							s.Cancel(c.e)
							c.done = true
						}
					}
				})
				open = append(open, h)
			}
			for i := 0; i < 3000; i++ {
				// Mix of clustered, far-future, and same-instant times.
				var at Time
				switch rng.Intn(4) {
				case 0:
					at = Time(rng.Intn(100))
				case 1:
					at = Time(rng.Intn(1_000_000))
				case 2:
					at = Time(500_000)
				default:
					at = Time(100_000 + rng.Intn(1000))
				}
				schedule(at)
			}
			// Cancel a deterministic subset before running.
			for i := 0; i < len(open); i += 7 {
				if !open[i].done {
					s.Cancel(open[i].e)
					open[i].done = true
				}
			}
			s.RunUntil(750_000)
			s.Run()
			return fired
		}
		ladder := run(NewScheduler())
		legacy := run(newRefQueue())
		if len(ladder) != len(legacy) {
			t.Fatalf("seed %d: ladder fired %d events, heap %d", seed, len(ladder), len(legacy))
		}
		for i := range ladder {
			if ladder[i] != legacy[i] {
				t.Fatalf("seed %d: firing order diverges at %d: ladder #%d vs heap #%d",
					seed, i, ladder[i], legacy[i])
			}
		}
	}
}

// TestSchedulerZeroAllocSteadyState pins the tentpole claim: once the
// free-list is primed, a schedule→fire cycle allocates nothing.
func TestSchedulerZeroAllocSteadyState(t *testing.T) {
	s := NewScheduler()
	var tick func()
	at := Time(0)
	tick = func() {
		at += 17
		s.Schedule(at, tick)
	}
	// Prime: a standing population and a warm free-list.
	for i := 0; i < 64; i++ {
		at += 3
		s.Schedule(at, tick)
	}
	for i := 0; i < 10_000; i++ {
		s.Step()
	}
	avg := testing.AllocsPerRun(5000, func() { s.Step() })
	if avg > 0 {
		t.Errorf("steady-state Step allocates %.3f objects/event, want 0", avg)
	}
}

func TestSchedulerPoolStats(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 10; i++ {
		s.Schedule(Time(i), func() {})
	}
	s.Run()
	if st := s.SnapshotState(); st.PoolHits != 0 || st.PoolMisses != 10 {
		t.Fatalf("cold pool: hits=%d misses=%d, want 0/10", st.PoolHits, st.PoolMisses)
	}
	for i := 0; i < 30; i++ {
		s.Schedule(s.Now().Add(1), func() {})
		s.Step()
	}
	if st := s.SnapshotState(); st.PoolHits != 30 || st.PoolMisses != 10 {
		t.Fatalf("warm pool: hits=%d misses=%d, want 30/10", st.PoolHits, st.PoolMisses)
	}
	if got, want := s.PoolHitRate(), 0.75; got != want {
		t.Errorf("PoolHitRate = %v, want %v", got, want)
	}
}

// TestLadderCancelRecyclesTombstones checks that tombstoned records are
// reclaimed when their bucket is consumed rather than leaking.
func TestLadderCancelRecyclesTombstones(t *testing.T) {
	s := NewScheduler()
	var events []*Event
	for i := 0; i < 1000; i++ {
		events = append(events, s.Schedule(Time(i), func() {}))
	}
	for _, e := range events {
		s.Cancel(e)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after cancelling all, want 0", s.Pending())
	}
	if s.Step() {
		t.Fatal("Step fired a cancelled event")
	}
	// All tombstones must now be back in the pool: the next 1000
	// schedules should be pure hits.
	hits0 := s.SnapshotState().PoolHits
	for i := 0; i < 1000; i++ {
		s.Schedule(s.Now().Add(Duration(i+1)), func() {})
	}
	if got := s.SnapshotState().PoolHits - hits0; got != 1000 {
		t.Errorf("reschedule after mass cancel took %d pool hits, want 1000", got)
	}
}
