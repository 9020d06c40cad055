package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"
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

// nextSeq and scheduleKey are NextSeq and ScheduleKeyed with the eager
// semantics: the event sits at exactly the key given, so an owner whose
// key moves must cancel it and schedule it again.
func (q *refQueue) nextSeq() uint64 {
	q.seq++
	return q.seq
}

func (q *refQueue) scheduleKey(at Time, seq uint64, fn func()) *Event {
	e := &Event{at: at, seq: seq, fn: fn}
	heap.Push(q, e)
	return e
}

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

// steadyMallocs returns the heap objects f allocates, counted exactly
// from MemStats.Mallocs: testing.AllocsPerRun truncates to whole objects
// per run, so it reads 0 for a queue that allocates once every hundred
// events. The count is process-wide, and the runtime's background
// goroutines (the scavenger arming its timer) can allocate once into any
// window, so f runs up to three times and the first clean window wins; a
// queue that grows with the events it executes allocates in every window.
func steadyMallocs(f func()) (n uint64) {
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n = after.Mallocs - before.Mallocs; n == 0 {
			return 0
		}
	}
	return n
}

// liveHeap returns the bytes still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
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
	const steps = 100_000
	if n := steadyMallocs(func() {
		for i := 0; i < steps; i++ {
			s.Step()
		}
	}); n != 0 {
		t.Errorf("%d steady-state Steps allocated %d objects, want 0", steps, n)
	}
}

// periodicTimer reschedules itself every period when it fires.
type periodicTimer struct {
	s      *Scheduler
	period Duration
}

func (p *periodicTimer) RunEvent() { p.s.AfterRunner(p.period, p) }

// TestLadderStorageTracksPending holds the ladder's storage to the events
// pending, not the events executed. A far-future sentinel makes the
// first rung spawned from Top span the whole run, so every reschedule of
// the 3,000 standing timers lands in a rung bucket; a million Steps past
// warm-up must then allocate nothing and leave the live heap no larger.
func TestLadderStorageTracksPending(t *testing.T) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(1))
	timers := make([]periodicTimer, 3000)
	for i := range timers {
		timers[i] = periodicTimer{s: s, period: Second/2 + Duration(rng.Int63n(int64(Second)))}
		s.AfterRunner(timers[i].period, &timers[i])
	}
	s.Schedule(Time(100_000*Second), func() {})
	for i := 0; i < 50_000; i++ {
		s.Step()
	}
	const steps = 1_000_000
	before := liveHeap()
	n := steadyMallocs(func() {
		for i := 0; i < steps; i++ {
			s.Step()
		}
	})
	after := liveHeap()
	t.Logf("%d Steps: %d mallocs, live heap %d -> %d B, %d pending", steps, n, before, after, s.Pending())
	if n != 0 {
		t.Errorf("%d Steps allocated %d objects (%.4f/event), want 0", steps, n, float64(n)/steps)
	}
	// A little slack for what the runtime itself keeps between the two
	// collections; the queue's share must not grow at all.
	if after > before+64<<10 {
		t.Errorf("live heap grew from %d to %d B over %d Steps with %d events pending",
			before, after, steps, s.Pending())
	}
	runtime.KeepAlive(timers)
}

// TestEventSize keeps the event record, which mega-sharded worlds hold
// by the hundred thousand in one slab, from growing silently: 48 bytes of
// key, callback and flags plus the chain link.
func TestEventSize(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); unsafe.Sizeof(uintptr(0)) == 8 && size > 56 {
		t.Errorf("Event is %d bytes, budget 56", size)
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

// firing is one callback a FuzzLadderRekey queue ran: the clock and the
// key of what fired; who is the keyed owner, or -1 for a plain event.
type firing struct {
	at  Time
	seq uint64
	who int
}

// rekeyOwner is a Keyed runner whose key the fuzz input moves.
type rekeyOwner struct {
	who int
	at  Time
	seq uint64
	ev  *Event // the queued event, nil while unarmed
	w   *rekeyWorld
}

func (o *rekeyOwner) EventKey() (Time, uint64) { return o.at, o.seq }

func (o *rekeyOwner) RunEvent() {
	o.ev = nil
	o.w.log = append(o.w.log, firing{o.w.q.Now(), o.seq, o.who})
}

// rekeyWorld is one side of FuzzLadderRekey: a queue, the few owners
// whose keys move, and what fired. follow tells the queue an armed
// owner's key moved later: a no-op for the ladder, which moves the event
// when it reaches it, and a cancel and re-insert for the reference.
type rekeyWorld struct {
	q      eventQueue
	draw   func() uint64
	arm    func(o *rekeyOwner) *Event
	follow func(o *rekeyOwner)
	owners [3]rekeyOwner
	log    []firing
}

func newRekeyWorld(q eventQueue, draw func() uint64, arm func(*rekeyOwner) *Event, follow func(*rekeyOwner)) *rekeyWorld {
	w := &rekeyWorld{q: q, draw: draw, arm: arm, follow: follow}
	for i := range w.owners {
		w.owners[i] = rekeyOwner{who: i, w: w}
	}
	return w
}

// rekeyDelay maps an op argument to a delay: mostly a few µs, so keys
// collide on time and order by seq, and sometimes far enough to land in
// a rung or Top instead of Bottom.
func rekeyDelay(b byte) Duration {
	if b >= 0xc0 {
		return Duration(b) * 977
	}
	return Duration(b % 8)
}

// apply runs one op of FuzzLadderRekey's language on the world.
func (w *rekeyWorld) apply(op, arg, who byte) {
	now := w.q.Now()
	o := &w.owners[int(who)%len(w.owners)]
	switch op {
	case 0: // a plain event
		var seq uint64
		seq = w.q.Schedule(now.Add(rekeyDelay(arg)), func() {
			w.log = append(w.log, firing{w.q.Now(), seq, -1})
		}).Seq()
	case 1: // move o's key later, arming o if it is not
		if o.ev == nil {
			o.at, o.seq = now.Add(rekeyDelay(arg)), w.draw()
			o.ev = w.arm(o)
			return
		}
		o.at, o.seq = o.at.Add(rekeyDelay(arg)), w.draw()
		w.follow(o)
	case 2: // move o's key earlier, which takes a cancel and a new event
		if o.ev == nil || o.at == now {
			return
		}
		w.q.Cancel(o.ev)
		o.at, o.seq = now.Add(Duration(arg)%Duration(o.at-now)), w.draw()
		o.ev = w.arm(o)
	case 3:
		w.q.Cancel(o.ev)
		o.ev = nil
	case 4:
		w.q.RunUntil(now.Add(rekeyDelay(arg)))
	case 5:
		w.q.Step()
	}
}

// FuzzLadderRekey holds keyed events to the reference heap. The input is
// a list of (op, arg, owner) triples:
//
//	0  schedule a plain event arg µs ahead (rekeyDelay)
//	1  move the owner's key later (arming it if unarmed)
//	2  move the owner's key earlier: cancel and schedule anew
//	3  cancel the owner's event
//	4  RunUntil arg µs ahead
//	5  Step
//	6  move an armed owner's key backwards without a cancel, then run
//
// The ladder leaves a moved-later event where it is and moves it when
// it reaches it; the reference cancels and re-inserts at every move. The
// two must fire the same (at, seq) sequence with the same clock and
// pending count after every op; the ladder's Executed must count
// firings only, and its audit hook must see exactly the firings, never
// a move. Op 6 ends the input: the ladder must panic when it reaches
// the event.
func FuzzLadderRekey(f *testing.F) {
	f.Add([]byte{1, 3, 0, 1, 2, 1, 0, 1, 0, 1, 4, 0, 4, 2, 0, 4, 7, 0})
	f.Add([]byte{1, 5, 0, 0, 5, 0, 1, 1, 0, 1, 2, 0, 5, 0, 0, 5, 0, 0, 2, 1, 0, 4, 9, 0})
	f.Add([]byte{1, 0xff, 1, 1, 0xc0, 2, 0, 0xd0, 0, 1, 0xe0, 1, 4, 0xff, 0, 3, 0, 2, 4, 0xff, 0})
	f.Add([]byte{1, 4, 0, 1, 1, 0, 6, 0, 0})
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 3*400)
	for i := range long {
		long[i] = byte(rng.Intn(256))
		if i%3 == 0 {
			long[i] %= 6
		}
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewScheduler()
		var audited []firing
		s.SetAuditHook(func(at Time, seq uint64) { audited = append(audited, firing{at, seq, 0}) })
		lad := newRekeyWorld(s, s.NextSeq,
			func(o *rekeyOwner) *Event { return s.ScheduleKeyed(o) },
			func(*rekeyOwner) {})
		r := newRefQueue()
		var ref *rekeyWorld
		ref = newRekeyWorld(r, r.nextSeq,
			func(o *rekeyOwner) *Event { return r.scheduleKey(o.at, o.seq, o.RunEvent) },
			func(o *rekeyOwner) {
				r.Cancel(o.ev)
				o.ev = ref.arm(o)
			})
		check := func(where string) {
			t.Helper()
			if s.Now() != r.Now() || s.Pending() != r.Pending() {
				t.Fatalf("%s: ladder now %v pending %d, reference now %v pending %d",
					where, s.Now(), s.Pending(), r.Now(), r.Pending())
			}
			if len(lad.log) != len(ref.log) {
				t.Fatalf("%s: ladder fired %d, reference %d", where, len(lad.log), len(ref.log))
			}
			for i := range lad.log {
				if lad.log[i] != ref.log[i] {
					t.Fatalf("%s: firing %d is %+v, reference %+v", where, i, lad.log[i], ref.log[i])
				}
				if a := audited[i]; a.at != lad.log[i].at || a.seq != lad.log[i].seq {
					t.Fatalf("%s: audit hook saw %+v as firing %d, which is %+v", where, a, i, lad.log[i])
				}
			}
			if s.Executed() != uint64(len(lad.log)) || len(audited) != len(lad.log) {
				t.Fatalf("%s: Executed %d, audited %d, for %d firings", where, s.Executed(), len(audited), len(lad.log))
			}
		}
		for i := 0; i+2 < len(ops); i += 3 {
			op, arg, who := ops[i]%7, ops[i+1], ops[i+2]
			if op == 6 {
				o := &lad.owners[int(who)%len(lad.owners)]
				if o.ev == nil {
					continue
				}
				o.at, o.seq = o.ev.At(), o.ev.Seq()-1
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "moved back") {
						t.Fatalf("a key moved backwards: panic %q, want one saying it moved back", msg)
					}
				}()
				s.Run()
				return
			}
			lad.apply(op, arg, who)
			ref.apply(op, arg, who)
			check(fmt.Sprintf("op %d (%d %d %d)", i/3, op, arg, who))
		}
		s.Run()
		r.Run()
		check("final drain")
	})
}

// TestExtractUntilRefusesKeyed: a speculative window cannot carry a
// keyed event, whose key moves under its owner.
func TestExtractUntilRefusesKeyed(t *testing.T) {
	s := NewScheduler()
	o := &rekeyOwner{}
	o.at, o.seq = 5, s.NextSeq()
	s.ScheduleKeyed(o)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "keyed") {
			t.Fatalf("ExtractUntil over a keyed event: panic %q, want one naming the keyed event", msg)
		}
	}()
	s.ExtractUntil(10)
}
