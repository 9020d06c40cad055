package sim

import "fmt"

// Event is a handle to a scheduled callback. It can be cancelled any time
// before it fires; cancelling an already-fired or already-cancelled event
// is a no-op. Event handles are only valid for the Scheduler that created
// them.
//
// Pooling contract: the scheduler recycles an Event as soon as its
// callback returns (or its cancellation is observed), so a handle must
// not be retained past the event firing — a held pointer may come back
// as a different, live event. Models that keep a handle in a field must
// clear the field inside the callback (or rely on the fact that the
// callback overwrites it with the next timer). Cancelling a stale handle
// after the owning scheduler has reused it is a logic error the type
// cannot detect.
type Event struct {
	at     Time
	seq    uint64
	runner Runner // the callback; Schedule's closures ride it as a funcRunner
	next   *Event // chain link while in a ladder or shard-wheel bucket
	fired  bool
	cancel bool
	keyed  bool // runner is a Keyed whose key may have moved later
}

// Runner is the one callback an event record carries; RunEvent is
// invoked at fire time. Schedule and After wrap a func() in a
// funcRunner, and binding a method value or closure per call costs one
// heap allocation; an interface value of an existing object costs none,
// which is what lets per-host recurring timers (mobility turns, HELLO
// beacons, MAC attempts) schedule without allocating.
type Runner interface{ RunEvent() }

// funcRunner adapts a func() to Runner; a func value is one pointer, so
// the interface holds it without allocating.
type funcRunner func()

func (f funcRunner) RunEvent() { f() }

// Keyed is a Runner whose one queued event stands for a key that may
// move later while it waits: a neighbor table's expiry event stands for
// its earliest entry deadline, which every HELLO refresh pushes back.
// EventKey reports the (at, seq) key the event should fire at now. When
// the ladder reaches the event at an earlier key it moves it to the
// reported one instead of firing it; that move is not an event (it is
// not counted in Executed, not seen by the audit or tick hooks, and
// does not advance the clock). The reported key must never be earlier
// than the queued one: an owner whose key moves earlier cancels its
// event and schedules a new one.
type Keyed interface {
	Runner
	EventKey() (at Time, seq uint64)
}

// At returns the simulated time the event is (or was) scheduled for.
func (e *Event) At() Time { return e.at }

// Scheduler is a deterministic discrete-event executor. Events scheduled
// for the same instant fire in FIFO order of scheduling, which makes runs
// reproducible. Scheduler is not safe for concurrent use; a simulation is
// single-threaded by design (parallelism belongs at the replica level).
//
// The queue is a ladder queue (ladder.go: amortized O(1) enqueue and
// dequeue, lazy tombstone cancellation, pooled Event records) that fires
// live events in exactly (time, seq) order. ladder_test.go holds it to a
// binary heap with eager removal, the reference it replaced.
type Scheduler struct {
	now      Time
	seq      uint64
	executed uint64

	lq   ladder
	live int // pending non-cancelled events

	// Shard calendar wheels (optional): per-shard queues for shard-local
	// timers, merged with the ladder at pop time by the global (time, seq)
	// key. Because seq is assigned from the single shared counter at
	// Schedule time and every queue pops in strict (time, seq) order, the
	// merged execution sequence is identical to routing all events
	// through the ladder alone.
	wheels []shardWheel

	// Parallel-drain lanes (one per wheel): between BeginParallelDrain and
	// EndParallelDrain each wheel may be drained by its own goroutine
	// (DrainShardUntil), so every mutable resource a drain touches — clock,
	// sequence counter, executed/live accounting, event free-list — has a
	// lane-local copy here, folded back into the shared fields at the
	// barrier. Lane sequence counters live in disjoint high-bit namespaces
	// (laneSeqBase), which keeps (at, seq) keys unique and deterministic
	// without a shared atomic counter; see BeginParallelDrain for the
	// ordering argument.
	lanes    []laneState
	parallel bool

	// Speculative-window lanes (spec.go): between BeginSpec and
	// CommitSpec the window's events run on per-band lanes with
	// provisional sequence numbers, validated and renumbered at commit.
	spec       bool
	specLanes  []specLane
	extractBuf []*Event
	specIdx    []int

	// Event free-list: recycled records are reused by the next Schedule,
	// so steady-state operation allocates nothing. A plain slice, not
	// sync.Pool — the scheduler is single-threaded, and sync.Pool's per-P
	// caches and GC emptying would cost more than they give.
	free       []*Event
	poolHits   uint64
	poolMisses uint64

	// Tick hook: an observation callback fired from Step whenever the
	// clock crosses the next tick boundary. Unlike a scheduled event it
	// does not enter the queue, does not count toward Executed, and
	// cannot shift event ordering — which is what lets telemetry
	// sampling run without perturbing a deterministic simulation.
	hook         func()
	hookInterval Duration
	hookNext     Time

	// Audit hook: observes every event firing with its (time, seq) key,
	// before the callback runs. Like the tick hook it is pure
	// observation (the invariant auditor checks monotonicity and FIFO
	// order through it); when nil the cost is one branch per Step.
	audit func(at Time, seq uint64)
}

// NewScheduler returns a ladder-queue scheduler with the clock at time
// zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Executed returns the number of events that have fired so far. It is
// useful for progress accounting and benchmarks.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Pending returns the number of events currently queued and not
// cancelled.
func (s *Scheduler) Pending() int { return s.live }

// PoolHitRate returns the fraction of Schedule calls served by the
// free-list, in [0, 1]; zero before any event has been scheduled.
func (s *Scheduler) PoolHitRate() float64 {
	total := s.poolHits + s.poolMisses
	if total == 0 {
		return 0
	}
	return float64(s.poolHits) / float64(total)
}

// allocFrom produces an Event record keyed (at, seq) with its flags
// cleared, popped off free when it holds one, and counts the pool hit or
// miss. Flags are cleared here rather than at recycle time so a stale
// handle keeps reporting its final Cancelled/Fired state until the
// record is actually reused.
func allocFrom(free *[]*Event, hits, misses *uint64, at Time, seq uint64) *Event {
	var e *Event
	if n := len(*free); n > 0 {
		e = (*free)[n-1]
		(*free)[n-1] = nil
		*free = (*free)[:n-1]
		*hits++
	} else {
		e = &Event{}
		*misses++
	}
	e.at, e.seq = at, seq
	e.fired, e.cancel, e.keyed = false, false, false
	return e
}

// alloc produces a record from the shared free-list at the shared
// counter's current seq.
func (s *Scheduler) alloc(at Time) *Event {
	if s.seq >= laneSeqBase(0) {
		panic("sim: shared sequence counter exhausted its namespace")
	}
	return allocFrom(&s.free, &s.poolHits, &s.poolMisses, at, s.seq)
}

// recycleInto returns a dead event record to the given free-list. The
// callback is dropped immediately so the pool does not pin closures (and
// whatever they capture) until reuse.
func recycleInto(free *[]*Event, e *Event) {
	e.runner = nil
	*free = append(*free, e)
}

// recycle returns a dead event record to the shared free-list.
func (s *Scheduler) recycle(e *Event) { recycleInto(&s.free, e) }

// assertSequential panics when an API reserved to the scheduler's owning
// goroutine is used while a parallel drain is active.
func (s *Scheduler) assertSequential(api string) {
	if s.parallel {
		panic("sim: " + api + " during a parallel drain")
	}
	if s.spec {
		panic("sim: " + api + " during a speculative window")
	}
}

// Schedule queues fn to run at the absolute time at, as a funcRunner.
// Scheduling in the past (before Now) panics: it always indicates a
// logic error in a model, and silently clamping would hide it.
func (s *Scheduler) Schedule(at Time, fn func()) *Event {
	if fn == nil {
		panic("sim: schedule with nil callback") // funcRunner(nil) is a non-nil Runner
	}
	return s.ScheduleRunner(at, funcRunner(fn))
}

// After queues fn to run d after the current time. Negative d panics.
func (s *Scheduler) After(d Duration, fn func()) *Event {
	return s.Schedule(s.now.Add(d), fn)
}

// ScheduleRunner queues r's RunEvent to fire at the absolute time at.
// The interface value is stored directly in the event record, so an
// already-live object schedules without allocating.
func (s *Scheduler) ScheduleRunner(at Time, r Runner) *Event {
	s.assertSequential("ScheduleRunner")
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	if r == nil {
		panic("sim: schedule with nil runner")
	}
	s.seq++
	e := s.alloc(at)
	e.runner = r
	s.lq.insert(e)
	s.live++
	return e
}

// AfterRunner queues r's RunEvent to fire d after the current time.
func (s *Scheduler) AfterRunner(d Duration, r Runner) *Event {
	return s.ScheduleRunner(s.now.Add(d), r)
}

// NextSeq draws the sequence number the next Schedule would have taken,
// for an owner that records a key now and schedules (or moves) its
// Keyed event to it later. Drawing it keeps every later sequence number
// where a Schedule at this moment would have left it.
func (s *Scheduler) NextSeq() uint64 {
	s.assertSequential("NextSeq")
	if s.seq+1 >= laneSeqBase(0) {
		panic("sim: shared sequence counter exhausted its namespace")
	}
	s.seq++
	return s.seq
}

// ScheduleKeyed queues r's RunEvent on the central ladder at the key r
// reports, whose seq must come from NextSeq. The event then follows r's
// key as it moves later (see Keyed).
func (s *Scheduler) ScheduleKeyed(r Keyed) *Event {
	s.assertSequential("ScheduleKeyed")
	at, seq := r.EventKey()
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	if seq > s.seq {
		panic(fmt.Sprintf("sim: keyed event seq %d not drawn yet (counter at %d)", seq, s.seq))
	}
	e := s.alloc(at)
	e.seq = seq
	e.runner = r
	e.keyed = true
	s.lq.insert(e)
	s.live++
	return e
}

// ScheduleShardRunner is ScheduleRunner onto the given shard's wheel. It
// is the one scheduling entry point that stays usable during a parallel
// drain: the drain goroutine that owns the shard may reschedule onto its
// own wheel, drawing the event record and sequence number from its lane.
func (s *Scheduler) ScheduleShardRunner(shard int, at Time, r Runner) *Event {
	if shard < 0 || shard >= len(s.wheels) {
		panic(fmt.Sprintf("sim: ScheduleShardRunner shard %d with %d wheels", shard, len(s.wheels)))
	}
	if r == nil {
		panic("sim: schedule with nil runner")
	}
	if s.parallel {
		ln := &s.lanes[shard]
		if at < ln.now {
			panic(fmt.Sprintf("sim: schedule at %v before lane now %v", at, ln.now))
		}
		e := ln.alloc(at)
		e.runner = r
		s.wheels[shard].insert(e)
		ln.liveDelta++
		return e
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	s.seq++
	e := s.alloc(at)
	e.runner = r
	s.wheels[shard].insert(e)
	s.live++
	return e
}

// AfterShardRunner is AfterRunner onto the given shard's wheel, relative
// to the clock the shard observes (the lane clock during a parallel
// drain).
func (s *Scheduler) AfterShardRunner(shard int, d Duration, r Runner) *Event {
	return s.ScheduleShardRunner(shard, s.NowFor(shard).Add(d), r)
}

// ConfigureShards equips the scheduler with n per-shard calendar wheels
// of the given bucket width, enabling ScheduleShardRunner. It must be
// called once, before any events are routed to shards.
func (s *Scheduler) ConfigureShards(n int, width Duration) {
	if n <= 0 {
		panic("sim: ConfigureShards with non-positive shard count")
	}
	if width <= 0 {
		panic("sim: ConfigureShards with non-positive bucket width")
	}
	if len(s.wheels) != 0 {
		panic("sim: shard queues already configured")
	}
	s.wheels = make([]shardWheel, n)
	for i := range s.wheels {
		s.wheels[i].width = width
	}
}

// ShardHead returns the timestamp of the given shard wheel's earliest
// pending event, or false if the wheel is empty. The invariant auditor
// reads the heads at shard-barrier boundaries: a head behind the clock
// would mean the merged pop skipped an event.
func (s *Scheduler) ShardHead(shard int) (Time, bool) {
	if shard < 0 || shard >= len(s.wheels) {
		panic(fmt.Sprintf("sim: ShardHead shard %d with %d wheels", shard, len(s.wheels)))
	}
	e, ok := s.wheels[shard].peek(s)
	if !ok {
		return 0, false
	}
	return e.at, true
}

// laneState is the per-wheel resource set a concurrent shard drain runs
// on. Everything here is touched only by the lane's own drain goroutine
// while a parallel drain is active, and only by the scheduler's single
// owning goroutine otherwise.
type laneState struct {
	now        Time
	seq        uint64 // next sequence number, pre-namespaced by laneSeqBase
	executed   uint64 // events fired on this lane, folded at EndParallelDrain
	liveDelta  int    // scheduled minus fired since the last fold
	free       []*Event
	poolHits   uint64
	poolMisses uint64
}

// laneSeqShift partitions the 64-bit sequence space: the shared counter
// owns [0, 2^48) and lane i owns [(i+1)<<48, (i+2)<<48). 2^48 events on
// one counter is orders of magnitude beyond any run this simulator can
// hold in memory, and alloc panics if the shared counter ever reaches
// the first lane namespace.
const laneSeqShift = 48

func laneSeqBase(lane int) uint64 { return (uint64(lane) + 1) << laneSeqShift }

// alloc produces a cleared event record from the lane's own free-list
// with the lane's next namespaced sequence number.
func (ln *laneState) alloc(at Time) *Event {
	ln.seq++
	return allocFrom(&ln.free, &ln.poolHits, &ln.poolMisses, at, ln.seq)
}

// NowFor returns the clock a callback on the given shard observes: the
// lane clock while a parallel drain is active (each lane's clock tracks
// the event it is firing), the shared clock otherwise. Shard -1 (the
// central ladder) always reads the shared clock.
func (s *Scheduler) NowFor(shard int) Time {
	if s.parallel && shard >= 0 && shard < len(s.lanes) {
		return s.lanes[shard].now
	}
	return s.now
}

// BeginParallelDrain opens a parallel drain phase: until
// EndParallelDrain, each shard wheel may be drained concurrently by its
// own goroutine via DrainShardUntil, and ScheduleShardRunner switches to
// lane-local allocation. The central ladder and every non-shard API are
// frozen — using them mid-drain panics.
//
// Why this preserves the oracle's observable behavior even though lane
// sequence numbers differ from the shared counter's: the only events a
// parallel drain may execute or schedule are shard-local timers whose
// callbacks touch nothing outside their own host (the mobility-turn
// contract the manet engine enforces). Two such events never share
// state, so their mutual order — the only thing a sequence number
// decides between same-instant events — cannot influence any result;
// and events on the same wheel still fire in strict (at, seq) order, so
// each host's own timer chain keeps its exact oracle order. Events with
// distinct timestamps order by time alone, unchanged.
func (s *Scheduler) BeginParallelDrain() {
	switch {
	case len(s.wheels) == 0:
		panic("sim: parallel drain without configured shard wheels")
	case s.parallel:
		panic("sim: parallel drain already active")
	case s.audit != nil:
		panic("sim: parallel drain under the audit hook (it must observe every event in merged order)")
	}
	if s.lanes == nil {
		s.lanes = make([]laneState, len(s.wheels))
		for i := range s.lanes {
			s.lanes[i].seq = laneSeqBase(i)
		}
	}
	for i := range s.lanes {
		s.lanes[i].now = s.now
	}
	s.parallel = true
}

// DrainShardUntil fires the given wheel's events in (at, seq) order
// strictly before deadline, entirely on lane-local state. Events exactly
// at the deadline are left queued for the sequential merged drain that
// follows the barrier — the strict bound is what guarantees a recurring
// timer with period >= the window length fires at most once per drain.
// It must only be called between BeginParallelDrain and
// EndParallelDrain, at most once per shard per phase, from at most one
// goroutine per shard. A callback may reschedule onto its own shard's
// wheel (and nothing else). It returns the number of events fired.
func (s *Scheduler) DrainShardUntil(shard int, deadline Time) uint64 {
	if !s.parallel {
		panic("sim: DrainShardUntil outside a parallel drain")
	}
	ln := &s.lanes[shard]
	w := &s.wheels[shard]
	var fired uint64
	for {
		e, ok := w.peekInto(&ln.free)
		if !ok || e.at >= deadline {
			break
		}
		w.take()
		ln.now = e.at
		e.fired = true
		fired++
		ln.liveDelta--
		e.runner.RunEvent()
		recycleInto(&ln.free, e)
	}
	if ln.now < deadline {
		ln.now = deadline
	}
	ln.executed += fired
	return fired
}

// EndParallelDrain closes a parallel drain phase and folds every lane's
// accounting back into the shared counters, so Pending, Executed, and
// PoolStats stay coherent for the sequential phase that follows. Lane
// free-lists stay lane-local: each wheel's recycled events feed its own
// future inserts, which is exactly where they will be needed.
func (s *Scheduler) EndParallelDrain() {
	if !s.parallel {
		panic("sim: EndParallelDrain without a begin")
	}
	s.parallel = false
	for i := range s.lanes {
		ln := &s.lanes[i]
		s.executed += ln.executed
		ln.executed = 0
		s.live += ln.liveDelta
		ln.liveDelta = 0
		s.poolHits += ln.poolHits
		s.poolMisses += ln.poolMisses
		ln.poolHits, ln.poolMisses = 0, 0
	}
}

// Reserve pre-populates the event free-list with n records allocated as
// a single slab, so a construction burst of n Schedule calls performs
// one allocation instead of n. It returns the slab so an arena can
// retain it for a later scheduler's ReserveFrom.
func (s *Scheduler) Reserve(n int) []Event {
	if n <= 0 {
		return nil
	}
	slab := make([]Event, n)
	s.ReserveFrom(slab)
	return slab
}

// ReserveFrom pre-populates the free-list from a caller-owned slab —
// typically one a previous scheduler's Reserve returned, retained
// across simulations by an arena. The slab is cleared first, so stale
// callbacks from its previous life are dropped before any record can
// fire.
func (s *Scheduler) ReserveFrom(slab []Event) {
	if len(slab) == 0 {
		return
	}
	clear(slab)
	if free := len(s.free) + len(slab); cap(s.free) < free {
		grown := make([]*Event, len(s.free), free)
		copy(grown, s.free)
		s.free = grown
	}
	for i := range slab {
		s.free = append(s.free, &slab[i])
	}
}

// ReuseStorage takes over the free-list backing of prev, a scheduler
// whose world is finished, so the population-sized free list a following
// Reserve or ReserveFrom builds lands in storage already allocated. Call
// it on a fresh scheduler, before those; prev must not be used again.
// The backing is cleared, so no record of prev's world stays reachable
// through it. A nil prev is a no-op.
func (s *Scheduler) ReuseStorage(prev *Scheduler) {
	if prev == nil || prev == s || len(s.free) != 0 || cap(prev.free) <= cap(s.free) {
		return
	}
	backing := prev.free[:cap(prev.free)]
	clear(backing)
	s.free, prev.free = backing[:0], nil
}

// Cancel marks a pending event so it will never fire. It is safe to call
// multiple times and on already-fired events. The event is tombstoned in
// place and recycled when the surrounding bucket is next consumed.
func (s *Scheduler) Cancel(e *Event) {
	s.assertSequential("Cancel")
	if e == nil || e.fired || e.cancel {
		return
	}
	e.cancel = true
	s.live--
}

// Drain cancels every pending event and empties the queue, retaining
// backing storage for reuse. It returns the number of live events
// discarded. The clock, sequence counter, and executed count are
// unchanged, so a scheduler can be re-armed and run again after a drain.
func (s *Scheduler) Drain() int {
	n := s.live
	s.lq.drain(s)
	for i := range s.wheels {
		s.wheels[i].drain(s)
	}
	s.live = 0
	return n
}

// SetTickHook installs fn to run inside Step each time the clock
// reaches or passes the next multiple-of-interval boundary after the
// point of installation, before that step's event fires. The hook must
// only read simulation state: it runs outside the event queue, so
// scheduling, cancelling, or mutating model state from it would break
// the guarantee that hooked and hookless runs execute identically.
// A nil fn removes the hook.
func (s *Scheduler) SetTickHook(interval Duration, fn func()) {
	if fn == nil {
		s.hook = nil
		return
	}
	if interval <= 0 {
		panic(fmt.Sprintf("sim: tick hook interval %v must be positive", interval))
	}
	s.hook = fn
	s.hookInterval = interval
	s.hookNext = s.now.Add(interval)
}

// SetAuditHook installs fn to observe every event firing (its scheduled
// time and sequence number), before the event's callback runs. The hook
// must only read simulation state; the invariant auditor uses it to
// verify clock monotonicity and same-instant FIFO order. A nil fn
// removes the hook.
func (s *Scheduler) SetAuditHook(fn func(at Time, seq uint64)) { s.audit = fn }

// Step fires the single earliest pending event, advancing the clock to
// its timestamp. It returns false when the queue is empty.
func (s *Scheduler) Step() bool {
	s.assertSequential("Step")
	var e *Event
	if len(s.wheels) == 0 {
		e = s.lq.pop(s)
	} else {
		e = s.popMerged()
	}
	if e == nil {
		return false
	}
	s.now = e.at
	if s.hook != nil && e.at >= s.hookNext {
		s.hook()
		s.hookNext = e.at.Add(s.hookInterval)
	}
	if s.audit != nil {
		s.audit(e.at, e.seq)
	}
	e.fired = true
	s.executed++
	s.live--
	e.runner.RunEvent()
	// Recycled only after the callback returns: the callback may read its
	// own handle (e.g. to clear a stored timer field) and must still see
	// this firing, not a reused record.
	s.recycle(e)
	return true
}

// popMerged removes and returns the globally earliest live event across
// the ladder and every shard wheel. Each source pops in strict (time,
// seq) order, so taking the minimum head by the same key reproduces the
// single-queue execution sequence exactly.
func (s *Scheduler) popMerged() *Event {
	best, src := (*Event)(nil), -1
	if e, ok := s.lq.peekEvent(s); ok {
		best = e
	}
	for i := range s.wheels {
		e, ok := s.wheels[i].peek(s)
		if !ok {
			continue
		}
		if best == nil || e.at < best.at || (e.at == best.at && e.seq < best.seq) {
			best, src = e, i
		}
	}
	if best == nil {
		return nil
	}
	if src < 0 {
		return s.lq.pop(s) // pops the event peekEvent just returned
	}
	s.wheels[src].take()
	return best
}

// peekNext returns the timestamp of the next event Step would fire.
func (s *Scheduler) peekNext() (Time, bool) {
	if len(s.wheels) == 0 {
		return s.lq.peek(s)
	}
	var (
		bestAt  Time
		bestSeq uint64
		ok      bool
	)
	if e, lok := s.lq.peekEvent(s); lok {
		bestAt, bestSeq, ok = e.at, e.seq, true
	}
	for i := range s.wheels {
		e, wok := s.wheels[i].peek(s)
		if !wok {
			continue
		}
		if !ok || e.at < bestAt || (e.at == bestAt && e.seq < bestSeq) {
			bestAt, bestSeq, ok = e.at, e.seq, true
		}
	}
	return bestAt, ok
}

// RunUntil fires events in order until the queue is empty or the next
// event is strictly after deadline. The clock finishes at the later of
// its current value and deadline.
func (s *Scheduler) RunUntil(deadline Time) {
	for {
		at, ok := s.peekNext()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Run fires events until the queue drains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}
