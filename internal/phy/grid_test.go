package phy

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/pdes"
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

// TestStaticNeighborMemo: in a world declared motionless every radio's
// neighbour list is taken from the grid once and served from the memo
// from then on — to Transmit, to Neighbors and to the reachability walk —
// always equal to the linear scan; a snapshot rebuild drops it, and a
// world with a positive bound never consults it.
func TestStaticNeighborMemo(t *testing.T) {
	const radius = 500.0
	rng := sim.NewRNG(24)
	// A 200-radio cluster and four radios nobody hears.
	pts := make([]geom.Point, 0, 204)
	for i := 0; i < 200; i++ {
		pts = append(pts, geom.Point{X: rng.UniformFloat(0, 900), Y: rng.UniformFloat(0, 1400)})
	}
	for i := 0; i < 4; i++ {
		pts = append(pts, geom.Point{X: 5000 + 2000*float64(i), Y: 700})
	}
	n := uint64(len(pts))

	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), radius)
	for _, p := range pts {
		ch.Attach(static(p), &fakeListener{})
	}
	ch.SetMaxSpeed(0)

	// The first walk takes every cluster member's list from the grid.
	if got := ch.CountReachable(0); got != 200 {
		t.Fatalf("cold CountReachable(0) = %d, want 200", got)
	}
	if hits, misses := ch.NbrMemoStats(); hits != 0 || misses != 200 {
		t.Fatalf("cold walk: %d hits / %d misses, want 0 / 200", hits, misses)
	}
	for round := 0; round < 3; round++ {
		for i := range pts {
			want := linearNeighbors(ch, i, sched.Now())
			ch.Transmit(i, bcastFrame(packet.NodeID(i)), nil)
			if tx := ch.active[len(ch.active)-1]; !slices.Equal(tx.receivers, want) {
				t.Fatalf("round %d: Transmit from %d reaches %v, linear scan %v", round, i, tx.receivers, want)
			}
			if i == 100 && ch.CountReachable(i) != 200 {
				t.Fatalf("round %d: CountReachable(%d) != 200", round, i)
			}
			sched.Run() // to the end of the airtime: the clock moves, the snapshot is re-stamped
			if got := ch.Neighbors(i, nil); !slices.Equal(got, want) {
				t.Fatalf("round %d: Neighbors(%d) = %v, linear scan %v", round, i, got, want)
			}
		}
		if got := ch.CountReachable(203); got != 1 {
			t.Fatalf("round %d: CountReachable of an isolated radio = %d, want 1", round, got)
		}
	}
	hits, misses := ch.NbrMemoStats()
	if misses != n {
		t.Errorf("the grid was queried %d times, want once per radio (%d)", misses, n)
	}
	// Every query but the first per radio hits: 6 Transmit and Neighbors
	// queries per radio, less the four isolated radios' first Transmit,
	// plus three walks over the cluster and three over one isolated radio.
	if want := 6*n - 4 + 3*(200+1); hits != want {
		t.Errorf("%d memo hits, want %d", hits, want)
	}
	if rate := ch.NbrMemoHitRate(); rate < 0.8 {
		t.Errorf("memo hit rate %.3f, want near 1", rate)
	}

	// A positive bound forces a rebuild, which drops the memo for good.
	ch.SetMaxSpeed(1)
	for i := range pts {
		if got, want := ch.Neighbors(i, nil), linearNeighbors(ch, i, sched.Now()); !slices.Equal(got, want) {
			t.Fatalf("after SetMaxSpeed(1) Neighbors(%d) = %v, linear scan %v", i, got, want)
		}
	}
	if ch.CountReachable(0) != 200 {
		t.Fatal("after SetMaxSpeed(1) CountReachable(0) != 200")
	}
	if ch.nbrMemo != nil {
		t.Error("memo survived the rebuild SetMaxSpeed(1) forces")
	}
	if h, m := ch.NbrMemoStats(); h != hits || m != misses {
		t.Errorf("a mobile world consulted the memo: %d/%d -> %d/%d", hits, misses, h, m)
	}

	// Declared motionless again: the memo starts over from nothing.
	ch.SetMaxSpeed(0)
	ch.Neighbors(7, nil)
	ch.Neighbors(7, nil)
	if h, m := ch.NbrMemoStats(); h != hits+1 || m != misses+1 {
		t.Errorf("fresh memo took %d hits / %d misses for two queries of one radio, want 1 / 1", h-hits, m-misses)
	}
}

// linearReachable is the reachability reference: a breadth-first search
// over live PositionAt distances, with no grid, snapshot or memo.
func linearReachable(ch *Channel, src int, now sim.Time) int {
	seen := make([]bool, len(ch.positions))
	seen[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, j := range linearNeighbors(ch, i, now) {
			if !seen[j] {
				seen[j] = true
				queue = append(queue, j)
			}
		}
	}
	count := 0
	for _, s := range seen {
		if s {
			count++
		}
	}
	return count
}

// FuzzCountReachable checks CountReachable against linearReachable on
// three channels over the same radios: declared motionless (the walk
// reads and fills the memo), mobile with a snapshot left stale by a
// clock advance inside the drift budget, and mobile with a pool
// attached. Radios orbit fuzzed centres; spread sets how far apart the
// centres sit, so worlds range from one component to many. Seeds are in
// testdata/fuzz.
func FuzzCountReachable(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, spread, advanceMs uint16, src uint8) {
		const radius, speed = 500.0, 30.0
		if n == 0 {
			return
		}
		rng := sim.NewRNG(seed)
		side := 500 + float64(spread)*4
		centres := make([]geom.Point, n)
		for i := range centres {
			centres[i] = geom.Point{X: rng.UniformFloat(0, side), Y: rng.UniformFloat(0, side)}
		}
		s := int(src) % int(n)
		// The stale snapshot may age until the drift reaches a quarter
		// radius: 125 m at 30 m/s is about 4.2 s.
		advance := sim.Duration(advanceMs%4000) * sim.Millisecond
		pool := pdes.NewPool(2)
		defer pool.Close()
		for _, arm := range []struct {
			name  string
			bound float64
			pool  *pdes.Pool
		}{{"static", 0, nil}, {"stale", speed, nil}, {"pool", speed, pool}} {
			sched := sim.NewScheduler()
			ch := NewChannel(sched, DSSSTiming(), radius)
			for i, c := range centres {
				phase := float64(i)
				v := arm.bound
				ch.Attach(PositionFunc(func(at sim.Time) geom.Point {
					a := phase + v*at.Seconds()/100
					return geom.Point{X: c.X + 100*math.Cos(a), Y: c.Y + 100*math.Sin(a)}
				}), &fakeListener{})
			}
			ch.SetPool(arm.pool)
			ch.SetMaxSpeed(arm.bound)
			for _, at := range []sim.Duration{0, advance} {
				target := sim.Time(0).Add(at)
				sched.Schedule(target, func() {})
				sched.RunUntil(target)
				got, want := ch.CountReachable(s), linearReachable(ch, s, sched.Now())
				if got != want {
					t.Fatalf("%s at %v: CountReachable(%d) = %d, BFS %d", arm.name, sched.Now(), s, got, want)
				}
			}
		}
	})
}
