package phy

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
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

// TestZeroSpeedBoundKeepsSnapshotExact declares the radios motionless
// and checks that, at instants after the first snapshot, Neighbors and a
// Transmit's receiver list still equal the linear scan while evaluating
// no position at all. With a positive bound the same queries must go on
// re-checking candidates against live positions: the declared bound,
// not the fact that nothing happens to move, is what licenses the
// shortcut.
func TestZeroSpeedBoundKeepsSnapshotExact(t *testing.T) {
	const n, radius = 80, 500.0
	for _, tc := range []struct {
		name      string
		bound     float64
		evaluates bool
	}{
		{"zero bound", 0, false},
		{"positive bound", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			ch := NewChannel(sched, DSSSTiming(), radius)
			rng := sim.NewRNG(11)
			pts := make([]geom.Point, n)
			evals := 0
			for i := range pts {
				p := geom.Point{X: rng.UniformFloat(0, 2500), Y: rng.UniformFloat(0, 2500)}
				pts[i] = p
				ch.Attach(PositionFunc(func(sim.Time) geom.Point { evals++; return p }), &fakeListener{})
			}
			ch.SetMaxSpeed(tc.bound)
			linear := func(i int) []int {
				var out []int
				for j, q := range pts {
					if j != i && q.Dist2(pts[i]) <= radius*radius {
						out = append(out, j)
					}
				}
				return out
			}

			ch.Neighbors(0, nil) // the first snapshot
			if evals != n {
				t.Fatalf("first snapshot evaluated %d positions, want %d", evals, n)
			}
			evals = 0
			for _, d := range []sim.Duration{3 * sim.Millisecond, 2 * sim.Second, 90 * sim.Second} {
				target := sched.Now().Add(d)
				sched.Schedule(target, func() {})
				sched.RunUntil(target)
				for i := range pts {
					if got, want := ch.Neighbors(i, nil), linear(i); !slices.Equal(got, want) {
						t.Fatalf("t=%v radio %d: Neighbors %v != linear %v", sched.Now(), i, got, want)
					}
				}
				sender := int(d/sim.Millisecond) % n
				ch.Transmit(sender, bcastFrame(packet.NodeID(sender)), nil)
				tx := ch.active[len(ch.active)-1]
				if want := linear(sender); !slices.Equal(tx.receivers, want) {
					t.Fatalf("t=%v: Transmit from %d reaches %v, linear scan %v", sched.Now(), sender, tx.receivers, want)
				}
				if tx.senderPos != pts[sender] {
					t.Fatalf("t=%v: Transmit from %d recorded sender position %v, want %v", sched.Now(), sender, tx.senderPos, pts[sender])
				}
			}
			if tc.evaluates && evals == 0 {
				t.Errorf("bound %v m/s: no position evaluated after the first snapshot; stale queries must re-check live positions", tc.bound)
			}
			if !tc.evaluates && evals != 0 {
				t.Errorf("bound 0: %d positions evaluated after the first snapshot, want none", evals)
			}
		})
	}
}
