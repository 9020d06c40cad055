package phy

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

// newMovingChannel builds a channel whose radios orbit distinct centers
// at exactly the given speed, so the index's drift-margin reasoning is
// exercised at its declared bound.
func newMovingChannel(n int, radius, speed float64) (*sim.Scheduler, *Channel) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), radius)
	side := int(math.Ceil(math.Sqrt(float64(n))))
	for i := 0; i < n; i++ {
		cx := float64(i%side) * radius * 0.7
		cy := float64(i/side) * radius * 0.7
		phase := float64(i)
		orbit := radius * 0.4
		ch.Attach(PositionFunc(func(t sim.Time) geom.Point {
			a := phase + speed*t.Seconds()/orbit
			return geom.Point{X: cx + orbit*math.Cos(a), Y: cy + orbit*math.Sin(a)}
		}), &fakeListener{})
	}
	return sched, ch
}

// linearNeighbors is the reference the index must match exactly.
func linearNeighbors(ch *Channel, i int, now sim.Time) []int {
	var out []int
	pi := ch.positions[i].PositionAt(now)
	r2 := ch.radius * ch.radius
	for j := range ch.positions {
		if j != i && ch.positions[j].PositionAt(now).Dist2(pi) <= r2 {
			out = append(out, j)
		}
	}
	return out
}

func TestNeighborsMatchesLinearWhileMoving(t *testing.T) {
	const speed = 25.0 // m/s, well above any simulated host
	sched, ch := newMovingChannel(60, 500, speed)
	ch.SetMaxSpeed(speed)
	// Advance in irregular steps so queries hit the fresh-snapshot path,
	// the within-budget stale path, and forced rebuilds.
	steps := []sim.Duration{
		0, 17 * sim.Millisecond, 1 * sim.Millisecond, 900 * sim.Millisecond,
		3 * sim.Second, 40 * sim.Microsecond, 11 * sim.Second,
	}
	for _, d := range steps {
		target := sched.Now().Add(d)
		sched.Schedule(target, func() {})
		sched.RunUntil(target)
		for i := 0; i < len(ch.positions); i++ {
			got := ch.Neighbors(i, nil)
			want := linearNeighbors(ch, i, sched.Now())
			if !slices.Equal(got, want) {
				t.Fatalf("t=%v radio %d: grid %v != linear %v", sched.Now(), i, got, want)
			}
		}
	}
}

func TestNeighborsWithoutSpeedBoundRebuildsExactly(t *testing.T) {
	// No SetMaxSpeed call: every distinct timestamp must trigger an
	// exact rebuild, so results still match the linear scan.
	sched, ch := newMovingChannel(30, 500, 40)
	for _, d := range []sim.Duration{0, 5 * sim.Second, 13 * sim.Second} {
		target := sim.Time(0).Add(d)
		sched.Schedule(target, func() {})
		sched.RunUntil(target)
		for i := 0; i < len(ch.positions); i++ {
			got := ch.Neighbors(i, nil)
			if want := linearNeighbors(ch, i, sched.Now()); !slices.Equal(got, want) {
				t.Fatalf("t=%v radio %d: grid %v != linear %v", sched.Now(), i, got, want)
			}
		}
	}
}

func TestSetMaxSpeedRejectsNegative(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	defer func() {
		if recover() == nil {
			t.Error("negative speed bound did not panic")
		}
	}()
	ch.SetMaxSpeed(-1)
}
