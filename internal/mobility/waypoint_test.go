package mobility

import (
	"testing"

	"repro/internal/sim"
)

func TestWaypointStaysInMap(t *testing.T) {
	sched := sim.NewScheduler()
	area := NewSquareMap(5, 500)
	rng := sim.NewRNG(1)
	movers := make([]*Waypoint, 10)
	for i := range movers {
		movers[i] = NewWaypoint(sched, area, DefaultWaypointConfig(60), rng.Fork(uint64(i)))
	}
	for step := 0; step < 2000; step++ {
		sched.RunUntil(sched.Now().Add(sim.Second))
		for i, w := range movers {
			if p := w.Position(); !area.Contains(p) {
				t.Fatalf("waypoint mover %d left map: %+v", i, p)
			}
		}
	}
}

func TestWaypointReachesDestinations(t *testing.T) {
	sched := sim.NewScheduler()
	area := NewSquareMap(3, 500)
	w := NewWaypoint(sched, area, DefaultWaypointConfig(60), sim.NewRNG(3))
	start := w.Position()
	moved := false
	for step := 0; step < 600 && !moved; step++ {
		sched.RunUntil(sched.Now().Add(sim.Second))
		if w.Position().Dist(start) > 50 {
			moved = true
		}
	}
	if !moved {
		t.Error("waypoint mover never moved 50 m in 10 minutes")
	}
}

func TestWaypointSpeedBounds(t *testing.T) {
	sched := sim.NewScheduler()
	area := NewSquareMap(5, 500)
	cfg := DefaultWaypointConfig(72) // 20 m/s max, 2 m/s min
	w := NewWaypoint(sched, area, cfg, sim.NewRNG(7))
	sawPause, sawMove := false, false
	for step := 0; step < 5000; step++ {
		sched.RunUntil(sched.Now().Add(200 * sim.Millisecond))
		sp := w.Speed()
		if sp == 0 {
			sawPause = true
			continue
		}
		sawMove = true
		if sp < cfg.MinSpeedMPS-1e-9 || sp > cfg.MaxSpeedMPS+1e-9 {
			t.Fatalf("speed %v outside [%v, %v]", sp, cfg.MinSpeedMPS, cfg.MaxSpeedMPS)
		}
	}
	if !sawMove {
		t.Error("never observed movement")
	}
	if !sawPause {
		t.Error("never observed a pause (pause time 1s)")
	}
}

func TestWaypointDisplacementBounded(t *testing.T) {
	sched := sim.NewScheduler()
	area := NewSquareMap(7, 500)
	cfg := DefaultWaypointConfig(100)
	w := NewWaypoint(sched, area, cfg, sim.NewRNG(11))
	prev := w.Position()
	const dt = 100 * sim.Millisecond
	for step := 0; step < 3000; step++ {
		sched.RunUntil(sched.Now().Add(dt))
		cur := w.Position()
		if d := cur.Dist(prev); d > cfg.MaxSpeedMPS*dt.Seconds()+1e-6 {
			t.Fatalf("teleport: %v m in %v", d, dt)
		}
		prev = cur
	}
}

func TestWaypointDeterministic(t *testing.T) {
	run := func() []float64 {
		sched := sim.NewScheduler()
		area := NewSquareMap(5, 500)
		w := NewWaypoint(sched, area, DefaultWaypointConfig(40), sim.NewRNG(99))
		var xs []float64
		for s := 0; s < 50; s++ {
			sched.RunUntil(sched.Now().Add(10 * sim.Second))
			xs = append(xs, w.Position().X)
		}
		return xs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("waypoint model not deterministic at sample %d", i)
		}
	}
}

func TestWaypointValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero max speed did not panic")
		}
	}()
	NewWaypoint(sim.NewScheduler(), NewSquareMap(1, 500), WaypointConfig{}, sim.NewRNG(1))
}

func TestWaypointZeroPauseMovesContinuously(t *testing.T) {
	sched := sim.NewScheduler()
	area := NewSquareMap(3, 500)
	cfg := WaypointConfig{MinSpeedMPS: 5, MaxSpeedMPS: 10, PauseTime: 0}
	w := NewWaypoint(sched, area, cfg, sim.NewRNG(13))
	pauses := 0
	for step := 0; step < 2000; step++ {
		sched.RunUntil(sched.Now().Add(sim.Second))
		if w.Speed() == 0 {
			pauses++
		}
	}
	if pauses > 0 {
		t.Errorf("zero-pause config observed %d paused samples", pauses)
	}
}
