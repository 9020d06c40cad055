package pdes

import "repro/internal/geom"

// NeighborFunc answers a walk's adjacency query: it appends u's
// neighbors to buf and returns the extended slice. The order of the
// appended neighbors is unspecified: the walk counts members, so a
// caller need not sort them.
type NeighborFunc func(u int, buf []int) []int

// Walker computes connected-component sizes with a sequential
// depth-first walk over the caller's NeighborFunc, reusing its visited
// marks, stack and adjacency buffer across walks.
type Walker struct {
	visited []bool
	stack   []int32
	nbr     []int
}

// NewWalker returns a walker. The pool argument is unused: it stays only
// for the benchmark's driver, which still passes one.
func NewWalker(_ *Pool) *Walker {
	return &Walker{}
}

// Count returns the number of nodes connected to src (including src)
// under the adjacency relation neigh defines over the len(snap) nodes.
// The grid and rev arguments are unused and stay only for the
// benchmark's driver. The walk stops as soon as all nodes are found, so
// on a connected graph it makes far fewer than one adjacency query per
// node.
func (w *Walker) Count(_ *geom.Grid, _ uint64, snap []geom.Point, src int, neigh NeighborFunc) int {
	n := len(snap)
	if n == 0 {
		return 0
	}
	if cap(w.visited) < n {
		w.visited = make([]bool, n)
	}
	w.visited = w.visited[:n]
	clear(w.visited)
	stack := w.stack[:0]
	w.visited[src] = true
	count := 1
	stack = append(stack, int32(src))
	// count == n ends the walk as surely as an empty stack does: a
	// component cannot exceed the population, so the nodes still stacked
	// could only rediscover marked ones. On a connected map that is after
	// a handful of adjacency queries instead of one per node.
	for len(stack) > 0 && count < n {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		w.nbr = neigh(int(u), w.nbr[:0])
		for _, v := range w.nbr {
			if !w.visited[v] {
				w.visited[v] = true
				count++
				stack = append(stack, int32(v))
			}
		}
	}
	w.stack = stack[:0]
	return count
}
