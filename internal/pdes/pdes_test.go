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

// TestWalkerStopsWhenAllFound counts adjacency queries on a complete
// graph: the first answer names every node, so the walk is over after
// one query however many nodes are still stacked.
func TestWalkerStopsWhenAllFound(t *testing.T) {
	const n = 100
	snap := make([]geom.Point, n)
	calls := 0
	everyone := func(u int, buf []int) []int {
		calls++
		for v := 0; v < n; v++ {
			if v != u {
				buf = append(buf, v)
			}
		}
		return buf
	}
	w := NewWalker(nil)
	// Twice: an early stop leaves work stacked, which the next walk must
	// not inherit.
	for round := 0; round < 2; round++ {
		calls = 0
		if got := w.Count(nil, 0, snap, 0, everyone); got != n {
			t.Fatalf("walk %d: counted %d of %d", round, got, n)
		}
		if calls != 1 {
			t.Errorf("walk %d: %d adjacency queries for a complete graph, want 1", round, calls)
		}
	}
}

// TestWalkerOrderInvariant: the walk counts members, so the order an
// adjacency list arrives in is not its business. Every query of the same
// graph answers in a fresh random order — a different one per call, also
// for the same node — and the count from every source stays what the
// ascending lists give.
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
	calls := uint64(0)
	shuffled := func(u int, buf []int) []int {
		from := len(buf)
		buf = grid.Neighbors(u, radius, buf)
		list := buf[from:]
		calls++
		r := sim.NewRNG(calls)
		for i := len(list) - 1; i > 0; i-- {
			j := r.IntN(i + 1)
			list[i], list[j] = list[j], list[i]
		}
		return buf
	}
	ref, w := NewWalker(nil), NewWalker(nil)
	sizes := map[int]bool{}
	for src := 0; src < n; src++ {
		want := ref.Count(nil, 0, snap, src, ascending)
		sizes[want] = true
		if got := w.Count(nil, 0, snap, src, shuffled); got != want {
			t.Fatalf("src=%d: %d reachable over shuffled lists, %d over ascending ones", src, got, want)
		}
	}
	if len(sizes) < 3 {
		t.Fatalf("graph has component sizes %v; want several so a wrong count can show", sizes)
	}
}
