package sim

import (
	"testing"
)

// runFunc adapts a bare callback to Runner, the only kind of event a
// shard wheel takes.
type runFunc func()

func (f runFunc) RunEvent() { f() }

// TestShardWheelMatchesLadder drives two schedulers with an identical
// random workload — one routing everything through the ladder, the other
// spreading events round-robin across shard wheels (with cancellations
// and re-scheduling from inside callbacks) — and requires the exact same
// firing sequence. This pins the merged-pop ordering contract: shard
// routing must be invisible to execution order.
func TestShardWheelMatchesLadder(t *testing.T) {
	const shards = 4
	for seed := uint64(1); seed <= 5; seed++ {
		plain := NewScheduler()
		sharded := NewScheduler()
		sharded.ConfigureShards(shards, 50*Millisecond)

		var plainLog, shardLog []Time
		rngA := NewRNG(seed)
		rngB := NewRNG(seed)

		type driver struct {
			s        *Scheduler
			rng      *RNG
			log      *[]Time
			useWheel bool
		}
		drivers := []*driver{
			{s: plain, rng: rngA, log: &plainLog},
			{s: sharded, rng: rngB, log: &shardLog, useWheel: true},
		}
		for _, d := range drivers {
			d := d
			var n int
			var spawn func()
			schedule := func(at Time, fn func()) *Event {
				n++
				if d.useWheel && n%3 != 0 {
					return d.s.ScheduleShardRunner(n%shards, at, runFunc(fn))
				}
				return d.s.Schedule(at, fn)
			}
			spawn = func() {
				now := d.s.Now()
				*d.log = append(*d.log, now)
				for range d.rng.IntN(3) {
					at := now.Add(Duration(d.rng.IntN(2_000_000)))
					e := schedule(at, spawn)
					// Cancel some events immediately, while the handle is
					// certainly still live, to exercise wheel tombstones.
					if d.rng.IntN(5) == 0 {
						d.s.Cancel(e)
					}
				}
			}
			// Seed workload: a burst of events over a wide horizon,
			// including same-instant ties.
			for i := 0; i < 200; i++ {
				at := Time(d.rng.IntN(1_000_000))
				e := schedule(at, spawn)
				if i%11 == 0 {
					d.s.Cancel(e)
				}
				if i%7 == 0 {
					schedule(at, spawn) // same-instant tie
				}
			}
			d.s.RunUntil(Time(5 * Second))
		}

		if len(plainLog) != len(shardLog) {
			t.Fatalf("seed %d: event counts differ: ladder %d, sharded %d",
				seed, len(plainLog), len(shardLog))
		}
		for i := range plainLog {
			if plainLog[i] != shardLog[i] {
				t.Fatalf("seed %d: firing %d differs: ladder %v, sharded %v",
					seed, i, plainLog[i], shardLog[i])
			}
		}
		if plain.Executed() != sharded.Executed() {
			t.Fatalf("seed %d: executed %d vs %d", seed, plain.Executed(), sharded.Executed())
		}
	}
}

// TestShardWheelDrain checks that Drain empties shard wheels alongside
// the ladder and the scheduler can be re-armed afterwards.
func TestShardWheelDrain(t *testing.T) {
	s := NewScheduler()
	s.ConfigureShards(2, Second)
	for i := 0; i < 10; i++ {
		s.ScheduleShardRunner(i%2, Time(i)*Time(Second), runFunc(func() {}))
		s.Schedule(Time(i)*Time(Second), func() {})
	}
	if got := s.Pending(); got != 20 {
		t.Fatalf("pending = %d, want 20", got)
	}
	if got := s.Drain(); got != 20 {
		t.Fatalf("drained = %d, want 20", got)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("pending after drain = %d, want 0", got)
	}
	fired := 0
	s.ScheduleShardRunner(1, s.Now().Add(Second), runFunc(func() { fired++ }))
	s.Run()
	if fired != 1 {
		t.Fatalf("re-armed event fired %d times, want 1", fired)
	}
}

// TestShardHead checks head introspection used by the barrier auditor.
func TestShardHead(t *testing.T) {
	s := NewScheduler()
	s.ConfigureShards(2, Second)
	if _, ok := s.ShardHead(0); ok {
		t.Fatal("empty shard reported a head")
	}
	s.ScheduleShardRunner(0, Time(3*Second), runFunc(func() {}))
	s.ScheduleShardRunner(0, Time(2*Second), runFunc(func() {}))
	at, ok := s.ShardHead(0)
	if !ok || at != Time(2*Second) {
		t.Fatalf("head = %v/%v, want 2s/true", at, ok)
	}
}

// TestReserve checks that a reserved slab serves subsequent schedules
// from the free-list.
func TestReserve(t *testing.T) {
	s := NewScheduler()
	s.Reserve(8)
	for i := 0; i < 8; i++ {
		s.After(Duration(i+1), func() {})
	}
	if s.poolHits != 8 || s.poolMisses != 0 {
		t.Fatalf("pool hits/misses = %d/%d, want 8/0", s.poolHits, s.poolMisses)
	}
	s.Run()
}
