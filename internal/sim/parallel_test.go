package sim

import (
	"sync"
	"testing"
)

// markRunner records its fire clock (as the scheduler reports it for
// its shard) and optionally reschedules itself once.
type markRunner struct {
	s       *Scheduler
	shard   int
	fires   []Time
	resched Duration // when > 0, reschedule once this far ahead
}

func (m *markRunner) RunEvent() {
	m.fires = append(m.fires, m.s.NowFor(m.shard))
	if m.resched > 0 {
		m.s.AfterShardRunner(m.shard, m.resched, m)
		m.resched = 0
	}
}

// TestParallelDrainBasics drives one begin/drain/end cycle by hand and
// checks the lane mechanics: strict deadline, per-lane clocks, lane
// sequence namespacing, mid-drain rescheduling, and the accounting fold
// back into the shared counters.
func TestParallelDrainBasics(t *testing.T) {
	s := NewScheduler()
	s.ConfigureShards(2, Second)

	r0 := &markRunner{s: s, shard: 0, resched: 30 * Microsecond}
	r1 := &markRunner{s: s, shard: 1}
	s.ScheduleShardRunner(0, Time(10), r0)
	s.ScheduleShardRunner(0, Time(20), r0)
	s.ScheduleShardRunner(1, Time(15), r1)
	ladderFired := false
	s.Schedule(Time(12), func() { ladderFired = true })

	s.BeginParallelDrain()
	if got := s.DrainShardUntil(0, Time(20)); got != 1 {
		t.Fatalf("shard 0 drained %d events before t=20, want 1 (strict deadline)", got)
	}
	if got := s.DrainShardUntil(1, Time(20)); got != 1 {
		t.Fatalf("shard 1 drained %d events, want 1", got)
	}
	if ladderFired {
		t.Fatal("ladder event fired during a parallel drain")
	}
	// The reschedule issued at t=10 must carry a lane-namespaced
	// sequence number and land 30µs after the lane clock, not the
	// shared clock (still parked at 0).
	e := s.ScheduleShardRunner(0, Time(25), r0)
	if e.seq < laneSeqBase(0) || e.seq >= laneSeqBase(1) {
		t.Fatalf("mid-drain schedule got seq %d outside lane 0's namespace", e.seq)
	}
	s.EndParallelDrain()

	if want := []Time{Time(10)}; len(r0.fires) != 1 || r0.fires[0] != want[0] {
		t.Fatalf("shard 0 fires %v, want %v (lane clock at the event's own timestamp)", r0.fires, want)
	}
	if s.Executed() != 2 {
		t.Fatalf("Executed %d after fold, want 2", s.Executed())
	}
	// Remaining: shard0 t=20, t=25, reschedule at t=40; shard1 none;
	// ladder t=12.
	if s.Pending() != 4 {
		t.Fatalf("Pending %d after fold, want 4", s.Pending())
	}
	s.RunUntil(Time(40))
	if !ladderFired {
		t.Fatal("ladder event never fired")
	}
	if want := []Time{10, 20, 25, 40}; len(r0.fires) != 4 ||
		r0.fires[1] != 20 || r0.fires[2] != 25 || r0.fires[3] != 40 {
		t.Fatalf("shard 0 fire times %v, want %v", r0.fires, want)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending %d at end, want 0", s.Pending())
	}
}

// TestParallelDrainConcurrent exercises the lanes from real goroutines:
// two shards with interleaved recurring timers drained concurrently
// over many windows must fire exactly the same per-shard sequences as a
// fully sequential merged run (and, under -race, prove the lane state
// partitioning shares nothing).
func TestParallelDrainConcurrent(t *testing.T) {
	run := func(parallel bool) [][]Time {
		s := NewScheduler()
		s.ConfigureShards(2, Second)
		rs := []*markRunner{
			{s: s, shard: 0, resched: 70 * Microsecond},
			{s: s, shard: 1, resched: 110 * Microsecond},
		}
		for i, r := range rs {
			for k := 1; k <= 50; k++ {
				s.ScheduleShardRunner(i, Time(k*37+i*13), r)
			}
		}
		deadline := Time(3000)
		window := Duration(100)
		for s.Now() < deadline {
			barrier := s.Now().Add(window)
			if barrier > deadline {
				barrier = deadline
			}
			if parallel {
				s.BeginParallelDrain()
				var wg sync.WaitGroup
				for shard := 0; shard < 2; shard++ {
					wg.Add(1)
					go func(shard int) {
						defer wg.Done()
						s.DrainShardUntil(shard, barrier)
					}(shard)
				}
				wg.Wait()
				s.EndParallelDrain()
			}
			s.RunUntil(barrier)
		}
		return [][]Time{rs[0].fires, rs[1].fires}
	}

	want := run(false)
	got := run(true)
	for shard := range want {
		if len(got[shard]) != len(want[shard]) {
			t.Fatalf("shard %d fired %d events parallel vs %d sequential",
				shard, len(got[shard]), len(want[shard]))
		}
		for i := range want[shard] {
			if got[shard][i] != want[shard][i] {
				t.Fatalf("shard %d fire %d at %v parallel vs %v sequential",
					shard, i, got[shard][i], want[shard][i])
			}
		}
	}
}

// TestParallelDrainGuards pins the freeze contract: the shared-state
// APIs panic while a drain is open, and the drain entry points panic
// outside one.
func TestParallelDrainGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}

	s := NewScheduler()
	mustPanic("BeginParallelDrain without wheels", s.BeginParallelDrain)
	mustPanic("DrainShardUntil outside a drain", func() { s.DrainShardUntil(0, Time(1)) })
	mustPanic("EndParallelDrain without a begin", s.EndParallelDrain)

	s.ConfigureShards(1, Second)
	r := &markRunner{s: s, shard: 0}
	e := s.ScheduleShardRunner(0, Time(5), r)
	s.BeginParallelDrain()
	mustPanic("Schedule during a drain", func() { s.Schedule(Time(1), func() {}) })
	mustPanic("ScheduleRunner during a drain", func() { s.ScheduleRunner(Time(1), r) })
	mustPanic("Cancel during a drain", func() { s.Cancel(e) })
	mustPanic("Step during a drain", func() { s.Step() })
	mustPanic("nested BeginParallelDrain", s.BeginParallelDrain)
	s.EndParallelDrain()

	audited := NewScheduler()
	audited.ConfigureShards(1, Second)
	audited.SetAuditHook(func(Time, uint64) {})
	mustPanic("BeginParallelDrain under audit", audited.BeginParallelDrain)
}
