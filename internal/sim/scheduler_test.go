package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		s.Schedule(at, func() { got = append(got, s.Now()) })
	}
	s.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSchedulerSameInstantFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(100, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of FIFO order: %v", order)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.Schedule(10, func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Error("Cancelled() = false after cancel")
	}
	// Cancelling again must be a no-op.
	s.Cancel(e)
	// Cancelling a fired event must be a no-op.
	e2 := s.Schedule(20, func() {})
	s.Run()
	s.Cancel(e2)
	if e2.Cancelled() {
		t.Error("fired event marked cancelled")
	}
}

func TestSchedulerCancelFromWithinEvent(t *testing.T) {
	s := NewScheduler()
	fired := false
	var victim *Event
	s.Schedule(5, func() { s.Cancel(victim) })
	victim = s.Schedule(10, func() { fired = true })
	s.Run()
	if fired {
		t.Error("event cancelled from an earlier event still fired")
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var got []Time
	s.Schedule(10, func() {
		got = append(got, s.Now())
		s.After(5, func() { got = append(got, s.Now()) })
	})
	s.Run()
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("nested scheduling produced %v, want [10 15]", got)
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, at := range []Time{10, 20, 30} {
		at := at
		s.Schedule(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(20) fired %d events, want 2", len(fired))
	}
	if s.Now() != 20 {
		t.Errorf("clock = %v after RunUntil(20), want 20", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 3 {
		t.Errorf("second RunUntil fired %d total, want 3", len(fired))
	}
	if s.Now() != 100 {
		t.Errorf("clock = %v, want deadline 100 even past last event", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler()
	s.Schedule(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.Schedule(5, func() {})
}

// TestScheduleNilPanics: a nil func is refused at the Schedule call,
// before it is wrapped as a (non-nil) Runner, queued or given a seq —
// not when the event would fire.
func TestScheduleNilPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "nil callback") {
			t.Fatalf("Schedule(1, nil) panicked with %q, want one naming the nil callback", msg)
		}
		if s.Pending() != 0 || s.NextSeq() != 1 {
			t.Errorf("the refused Schedule left %d events pending or drew a seq", s.Pending())
		}
	}()
	s.Schedule(1, nil)
}

func TestSchedulerExecutedCount(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.Schedule(Time(i), func() {})
	}
	e := s.Schedule(100, func() {})
	s.Cancel(e)
	s.Run()
	if s.Executed() != 7 {
		t.Errorf("Executed() = %d, want 7 (cancelled events do not count)", s.Executed())
	}
}

// TestSchedulerOrderingProperty checks, for arbitrary event time sets,
// that execution is sorted and complete.
func TestSchedulerOrderingProperty(t *testing.T) {
	prop := func(times []uint16) bool {
		s := NewScheduler()
		var fired []Time
		for _, raw := range times {
			at := Time(raw)
			s.Schedule(at, func() { fired = append(fired, at) })
		}
		s.Run()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTickHookFiresOnBoundaryCrossings(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	s.SetTickHook(100, func() { ticks = append(ticks, s.Now()) })
	var fired []Time
	for _, at := range []Time{50, 99, 150, 151, 400} {
		s.Schedule(at, func() { fired = append(fired, s.Now()) })
	}
	s.Run()
	// Boundaries: installed at 0 → next=100. Event at 150 crosses it
	// (next→250); 151 does not; 400 crosses 250 (next→500).
	want := []Time{150, 400}
	if len(ticks) != len(want) {
		t.Fatalf("hook fired at %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
	if s.Executed() != 5 {
		t.Errorf("Executed = %d, want 5 (hook must not count as an event)", s.Executed())
	}
}

func TestTickHookDoesNotChangeEventOrdering(t *testing.T) {
	run := func(hook bool) ([]Time, uint64) {
		s := NewScheduler()
		if hook {
			s.SetTickHook(7, func() {})
		}
		var fired []Time
		for _, at := range []Time{3, 14, 14, 9, 100, 21} {
			s.Schedule(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		return fired, s.Executed()
	}
	plain, pn := run(false)
	hooked, hn := run(true)
	if pn != hn {
		t.Errorf("Executed differs with hook: %d vs %d", pn, hn)
	}
	for i := range plain {
		if plain[i] != hooked[i] {
			t.Fatalf("event order differs with hook: %v vs %v", plain, hooked)
		}
	}
}

func TestTickHookValidation(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("SetTickHook with non-positive interval did not panic")
		}
	}()
	s.SetTickHook(0, func() {})
}

func TestTickHookRemoval(t *testing.T) {
	s := NewScheduler()
	calls := 0
	s.SetTickHook(10, func() { calls++ })
	s.SetTickHook(0, nil) // nil fn removes the hook; interval is ignored
	s.Schedule(100, func() {})
	s.Run()
	if calls != 0 {
		t.Errorf("removed hook fired %d times", calls)
	}
}
