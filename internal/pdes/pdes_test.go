package pdes

import (
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

func TestPoolDoCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 7, 64, 1000} {
			var hits atomic.Int64
			seen := make([]atomic.Bool, n)
			p.Do(n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					if seen[i].Swap(true) {
						t.Errorf("workers=%d n=%d: index %d visited twice", workers, n, i)
					}
					hits.Add(1)
				}
			})
			if got := hits.Load(); got != int64(n) {
				t.Fatalf("workers=%d: covered %d of %d indices", workers, got, n)
			}
		}
		p.Close()
		p.Close() // idempotent
		// Closed pool degrades to inline execution.
		var inline int
		p.Do(5, func(_, lo, hi int) { inline += hi - lo })
		if inline != 5 {
			t.Fatalf("closed pool covered %d of 5", inline)
		}
	}
}

// TestWalkerMatchesSequential grows random unit-disk graphs at several
// densities and checks the band-parallel component count against the
// sequential walk from every source, across pool sizes.
func TestWalkerMatchesSequential(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		pool := NewPool(workers)
		par := NewWalker(pool)
		seq := NewWalker(nil)
		for seed := uint64(1); seed <= 4; seed++ {
			rng := sim.NewRNG(seed)
			n := 60 + rng.IntN(300)
			side := 2000.0
			radius := 120 + rng.UniformFloat(0, 160)
			snap := make([]geom.Point, n)
			for i := range snap {
				snap[i] = geom.Point{
					X: rng.UniformFloat(0, side),
					Y: rng.UniformFloat(0, side),
				}
			}
			var grid geom.Grid
			grid.Rebuild(snap, radius)
			neigh := func(u int, buf []int) []int { return grid.Neighbors(u, radius, buf) }
			for src := 0; src < n; src += 7 {
				want := seq.Count(&grid, seed, snap, src, neigh)
				got := par.Count(&grid, seed, snap, src, neigh)
				if got != want {
					t.Fatalf("workers=%d seed=%d src=%d: parallel count %d, sequential %d",
						workers, seed, src, got, want)
				}
			}
		}
		pool.Close()
	}
}

// TestWalkerSpillOverflow forces a dense single-row graph so crossings
// overflow the bounded channels and exercise the spill path.
func TestWalkerSpillOverflow(t *testing.T) {
	// Two tall columns of tightly packed nodes with a narrow bridge: most
	// discoveries cross band borders.
	const n = 2000
	snap := make([]geom.Point, n)
	rng := sim.NewRNG(99)
	for i := range snap {
		snap[i] = geom.Point{X: rng.UniformFloat(0, 50), Y: rng.UniformFloat(0, 2000)}
	}
	radius := 120.0
	var grid geom.Grid
	grid.Rebuild(snap, radius)
	pool := NewPool(4)
	defer pool.Close()
	par := NewWalker(pool)
	seq := NewWalker(nil)
	neigh := func(u int, buf []int) []int { return grid.Neighbors(u, radius, buf) }
	for src := 0; src < n; src += 97 {
		want := seq.Count(&grid, 1, snap, src, neigh)
		if got := par.Count(&grid, 1, snap, src, neigh); got != want {
			t.Fatalf("src=%d: parallel count %d, sequential %d", src, got, want)
		}
	}
}

// TestWalkerStaleBanding drives the walker the way phy does under a
// stale snapshot: band ownership comes from an outdated position set
// while adjacency is answered from the live one. Nodes may sit up to
// two bands away from their edges' endpoints, so crossings are no
// longer confined to adjacent bands; membership must not change.
func TestWalkerStaleBanding(t *testing.T) {
	const n = 1500
	rng := sim.NewRNG(7)
	radius := 150.0
	stale := make([]geom.Point, n)
	live := make([]geom.Point, n)
	for i := range stale {
		stale[i] = geom.Point{X: rng.UniformFloat(0, 1500), Y: rng.UniformFloat(0, 1500)}
		// Drift each node by up to two cell edges between the snapshot
		// and the query instant.
		live[i] = geom.Point{
			X: stale[i].X + rng.UniformFloat(-2*radius, 2*radius),
			Y: stale[i].Y + rng.UniformFloat(-2*radius, 2*radius),
		}
	}
	var staleGrid, liveGrid geom.Grid
	staleGrid.Rebuild(stale, radius)
	liveGrid.Rebuild(live, radius)
	neigh := func(u int, buf []int) []int { return liveGrid.Neighbors(u, radius, buf) }
	pool := NewPool(4)
	defer pool.Close()
	par := NewWalker(pool)
	seq := NewWalker(nil)
	for src := 0; src < n; src += 53 {
		want := seq.Count(&staleGrid, 1, stale, src, neigh)
		if got := par.Count(&staleGrid, 1, stale, src, neigh); got != want {
			t.Fatalf("src=%d: parallel count %d, sequential %d", src, got, want)
		}
	}
}

// TestWalkerStopsWhenAllFound counts adjacency queries on a complete
// graph: the first answer names every node, so the walk is over after
// one query however many nodes are still stacked. The source sits alone
// in the lowest band and the rest in the highest, so the band-parallel
// walker hands all 99 discoveries across a border and must stop at the
// barrier after the round that delivered them.
func TestWalkerStopsWhenAllFound(t *testing.T) {
	const n = 100
	snap := make([]geom.Point, n)
	for i := 1; i < n; i++ {
		snap[i] = geom.Point{X: float64(i), Y: 1000}
	}
	var grid geom.Grid
	grid.Rebuild(snap, 100)
	if _, rows := grid.Cells(); rows < 2 {
		t.Fatalf("grid has %d rows; the parallel walker needs two bands", rows)
	}
	var calls atomic.Int64
	everyone := func(u int, buf []int) []int {
		calls.Add(1)
		for v := 0; v < n; v++ {
			if v != u {
				buf = append(buf, v)
			}
		}
		return buf
	}
	pool := NewPool(2)
	defer pool.Close()
	for _, tc := range []struct {
		name   string
		walker *Walker
	}{
		{"sequential", NewWalker(nil)},
		{"band-parallel", NewWalker(pool)},
	} {
		// Twice: an early stop leaves work stacked, which the next walk
		// must not inherit.
		for round := 0; round < 2; round++ {
			calls.Store(0)
			if got := tc.walker.Count(&grid, 1, snap, 0, everyone); got != n {
				t.Fatalf("%s walk %d: counted %d of %d", tc.name, round, got, n)
			}
			if got := calls.Load(); got != 1 {
				t.Errorf("%s walk %d: %d adjacency queries for a complete graph, want 1", tc.name, round, got)
			}
		}
	}
}

// TestWalkerOrderInvariant: the walk counts members, so the order an
// adjacency list arrives in is not its business. Every query of the same
// graph answers in a fresh random order — a different one per call, also
// for the same node — and the count from every source stays what the
// ascending lists give, sequential and band-parallel.
func TestWalkerOrderInvariant(t *testing.T) {
	const n, side, radius = 400, 2000.0, 130.0 // sparse enough for several components
	rng := sim.NewRNG(24)
	snap := make([]geom.Point, n)
	for i := range snap {
		snap[i] = geom.Point{X: rng.UniformFloat(0, side), Y: rng.UniformFloat(0, side)}
	}
	var grid geom.Grid
	grid.Rebuild(snap, radius)
	ascending := func(u int, buf []int) []int { return grid.Neighbors(u, radius, buf) }
	var calls atomic.Uint64
	shuffled := func(u int, buf []int) []int {
		from := len(buf)
		buf = grid.Neighbors(u, radius, buf)
		list := buf[from:]
		r := sim.NewRNG(calls.Add(1)) // band workers call concurrently: one stream per call
		for i := len(list) - 1; i > 0; i-- {
			j := r.IntN(i + 1)
			list[i], list[j] = list[j], list[i]
		}
		return buf
	}
	pool := NewPool(4)
	defer pool.Close()
	ref := NewWalker(nil)
	sizes := map[int]bool{}
	for _, tc := range []struct {
		name   string
		walker *Walker
	}{
		{"sequential", NewWalker(nil)},
		{"band-parallel", NewWalker(pool)},
	} {
		for src := 0; src < n; src++ {
			want := ref.Count(&grid, 1, snap, src, ascending)
			sizes[want] = true
			if got := tc.walker.Count(&grid, 1, snap, src, shuffled); got != want {
				t.Fatalf("%s src=%d: %d reachable over shuffled lists, %d over ascending ones", tc.name, src, got, want)
			}
		}
	}
	if len(sizes) < 3 {
		t.Fatalf("graph has component sizes %v; want several so a wrong count can show", sizes)
	}
}
