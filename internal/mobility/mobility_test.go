package mobility

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

func TestRoamerStaysInMap(t *testing.T) {
	sched := sim.NewScheduler()
	area := NewSquareMap(3, 500)
	rng := sim.NewRNG(1)
	roamers := make([]*Roamer, 20)
	for i := range roamers {
		roamers[i] = NewRoamer(sched, area, DefaultConfig(80), rng.Fork(uint64(i)))
	}
	// Sample positions every simulated second for an hour.
	for step := 0; step < 3600; step++ {
		sched.RunUntil(sim.Time(step) * sim.Time(sim.Second))
		for i, r := range roamers {
			p := r.Position()
			if !area.Contains(p) {
				t.Fatalf("roamer %d left the map at t=%ds: %+v", i, step, p)
			}
		}
	}
}

func TestRoamerActuallyMoves(t *testing.T) {
	sched := sim.NewScheduler()
	area := NewSquareMap(5, 500)
	r := NewRoamer(sched, area, DefaultConfig(50), sim.NewRNG(7))
	start := r.Position()
	moved := false
	for step := 1; step <= 600; step++ {
		sched.RunUntil(sim.Time(step) * sim.Time(sim.Second))
		if r.Position().Dist(start) > 10 {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("roamer did not move more than 10 m in 10 minutes at max 50 km/h")
	}
}

func TestRoamerSpeedBounded(t *testing.T) {
	sched := sim.NewScheduler()
	area := NewSquareMap(5, 500)
	cfg := DefaultConfig(60)
	rng := sim.NewRNG(3)
	for i := 0; i < 10; i++ {
		r := NewRoamer(sched, area, cfg, rng.Fork(uint64(i)))
		for s := 0; s < 50; s++ {
			sched.RunUntil(sched.Now().Add(20 * sim.Second))
			if sp := r.Speed(); sp < 0 || sp > cfg.MaxSpeedMPS+1e-9 {
				t.Fatalf("speed %v outside [0, %v]", sp, cfg.MaxSpeedMPS)
			}
		}
	}
}

// TestRoamerDisplacementConsistentWithSpeed checks positions move no
// faster than the configured max between closely spaced samples.
func TestRoamerDisplacementConsistentWithSpeed(t *testing.T) {
	sched := sim.NewScheduler()
	area := NewSquareMap(7, 500)
	cfg := DefaultConfig(100)
	r := NewRoamer(sched, area, cfg, sim.NewRNG(11))
	prev := r.Position()
	const dt = 100 * sim.Millisecond
	for step := 0; step < 5000; step++ {
		sched.RunUntil(sched.Now().Add(dt))
		cur := r.Position()
		if d := cur.Dist(prev); d > cfg.MaxSpeedMPS*dt.Seconds()+1e-6 {
			t.Fatalf("displacement %vm in %v exceeds max speed", d, dt)
		}
		prev = cur
	}
}

func TestStaticRoamer(t *testing.T) {
	sched := sim.NewScheduler()
	area := NewSquareMap(1, 500)
	at := geom.Point{X: 100, Y: 200}
	r := NewStaticRoamer(sched, area, at)
	sched.RunUntil(1000 * sim.Time(sim.Second))
	if got := r.Position(); got != at {
		t.Errorf("static roamer moved to %+v", got)
	}
	if r.Speed() != 0 {
		t.Errorf("static roamer has speed %v", r.Speed())
	}
}

func TestRoamerStop(t *testing.T) {
	sched := sim.NewScheduler()
	area := NewSquareMap(3, 500)
	r := NewRoamer(sched, area, DefaultConfig(80), sim.NewRNG(5))
	sched.RunUntil(10 * sim.Time(sim.Second))
	r.Stop()
	frozen := r.Position()
	sched.RunUntil(500 * sim.Time(sim.Second))
	if got := r.Position(); got.Dist(frozen) > 1e-9 {
		t.Errorf("stopped roamer moved from %+v to %+v", frozen, got)
	}
	r.Stop() // second stop must be a no-op
}

func TestRoamerDeterministic(t *testing.T) {
	run := func() []geom.Point {
		sched := sim.NewScheduler()
		area := NewSquareMap(5, 500)
		r := NewRoamer(sched, area, DefaultConfig(40), sim.NewRNG(99))
		var pts []geom.Point
		for s := 0; s < 100; s++ {
			sched.RunUntil(sim.Time(s) * 10 * sim.Time(sim.Second))
			pts = append(pts, r.Position())
		}
		return pts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mobility not deterministic at sample %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRoamerCoversMap(t *testing.T) {
	// Over a long run, a single roamer should visit all four quadrants of
	// the map; this guards against folding bugs that trap hosts near a
	// border.
	sched := sim.NewScheduler()
	area := NewSquareMap(3, 500)
	r := NewRoamer(sched, area, DefaultConfig(80), sim.NewRNG(13))
	var quadrants [4]bool
	for s := 0; s < 20000; s++ {
		sched.RunUntil(sched.Now().Add(5 * sim.Second))
		p := r.Position()
		q := 0
		if p.X > area.Width/2 {
			q |= 1
		}
		if p.Y > area.Height/2 {
			q |= 2
		}
		quadrants[q] = true
	}
	for q, visited := range quadrants {
		if !visited {
			t.Errorf("quadrant %d never visited in a long run", q)
		}
	}
}

func TestMapHelpers(t *testing.T) {
	m := NewSquareMap(3, 500)
	if m.Width != 1500 || m.Height != 1500 {
		t.Fatalf("map = %+v", m)
	}
	if !m.Contains(geom.Point{X: 0, Y: 1500}) {
		t.Error("border point not contained")
	}
	if m.Contains(geom.Point{X: -1, Y: 0}) {
		t.Error("outside point contained")
	}
	if m.String() == "" {
		t.Error("empty map string")
	}
}

func TestKMHToMPS(t *testing.T) {
	if got := KMHToMPS(36); math.Abs(got-10) > 1e-12 {
		t.Errorf("36 km/h = %v m/s, want 10", got)
	}
}

// TestRoamerParallelDrainMatchesSequential pins the one-segment history
// that licenses firing turns ahead of the shared clock: a roamer whose
// turns drain inside parallel barrier windows must answer every
// position, lookback, and speed query with exactly the values of an
// identical roamer stepped sequentially — while the shared clock is
// behind a drained turn, queries resolve on the pre-turn segment.
func TestRoamerParallelDrainMatchesSequential(t *testing.T) {
	area := NewSquareMap(4, 500)
	cfg := DefaultConfig(300)

	mk := func(sharded bool) (*sim.Scheduler, *Roamer) {
		s := sim.NewScheduler()
		s.ConfigureShards(1, sim.Second)
		r := &Roamer{}
		InitRoamer(r, s, area, cfg, sim.NewRNG(42))
		if sharded {
			r.SetShard(0)
		}
		r.Start()
		return s, r
	}
	os, or := mk(false) // oracle: turns on the central ladder
	ps, pr := mk(true)  // turns drained in parallel windows

	window := sim.Second / 4 // well under MinTurn
	for step := 1; step <= 1200; step++ {
		deadline := sim.Time(0).Add(sim.Duration(step) * window)
		os.RunUntil(deadline)
		ps.BeginParallelDrain()
		ps.DrainShardUntil(0, deadline)
		ps.EndParallelDrain()
		ps.RunUntil(deadline)
		if op, pp := or.Position(), pr.Position(); op != pp {
			t.Fatalf("step %d: position %v parallel vs %v sequential", step, pp, op)
		}
		// The PHY's sub-millisecond lookback must reproduce the oracle
		// too, including its backward extrapolation along the segment
		// the oracle considers current.
		back := deadline.Add(-300 * sim.Microsecond)
		if op, pp := or.PositionAt(back), pr.PositionAt(back); op != pp {
			t.Fatalf("step %d: lookback %v parallel vs %v sequential", step, pp, op)
		}
		if ov, pv := or.Speed(), pr.Speed(); ov != pv {
			t.Fatalf("step %d: speed %v parallel vs %v sequential", step, pv, ov)
		}
	}
	if os.Executed() != ps.Executed() {
		t.Fatalf("executed %d parallel vs %d sequential", ps.Executed(), os.Executed())
	}
	if os.Executed() == 0 {
		t.Fatal("no turns fired over 300 simulated seconds")
	}
}
