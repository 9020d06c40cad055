package analysis

import (
	"repro/internal/geom"
)

// This file provides an oracle for the rebroadcast-saving metric: a
// broadcast reaches every host in the source's component if and only if
// the set of transmitters dominates the component and is connected
// (every non-transmitter neighbors a transmitter, and the transmitters
// form a connected relay backbone containing the source). The smallest
// such set is a minimum connected dominating set (MCDS) — NP-hard, so we
// compute greedy approximations. A greedy CDS is at least as large as
// the minimum one, so 1 - |CDS|/|component| is an SRB some relay set
// achieves at full reachability, not a ceiling: a scheme may beat it.

// UnitDiskAdjacency builds the adjacency lists of the unit-disk graph on
// the given points with radio radius r.
func UnitDiskAdjacency(points []geom.Point, r float64) [][]int {
	n := len(points)
	adj := make([][]int, n)
	r2 := r * r
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if points[i].Dist2(points[j]) <= r2 {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	return adj
}

// Component returns the vertices of src's connected component.
func Component(adj [][]int, src int) []int {
	visited := make([]bool, len(adj))
	visited[src] = true
	stack := []int{src}
	var out []int
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, v)
		for _, w := range adj[v] {
			if !visited[w] {
				visited[w] = true
				stack = append(stack, w)
			}
		}
	}
	return out
}

// BFSTreeCDS returns a connected dominating set of src's component: the
// internal (non-leaf) vertices of a BFS tree rooted at src, always
// including src itself. It is a simple constructive upper bound on the
// MCDS.
func BFSTreeCDS(adj [][]int, src int) []int {
	n := len(adj)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	visited := make([]bool, n)
	visited[src] = true
	queue := []int{src}
	var order []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range adj[v] {
			if !visited[w] {
				visited[w] = true
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	internal := make(map[int]bool, len(order))
	internal[src] = true
	for _, v := range order {
		if parent[v] >= 0 {
			internal[parent[v]] = true
		}
	}
	out := make([]int, 0, len(internal))
	for _, v := range order { // deterministic order
		if internal[v] {
			out = append(out, v)
		}
	}
	return out
}

// GreedyCDS returns a connected dominating set of src's component using
// the classic greedy coloring: grow a black (selected) backbone from
// src, at each step blackening the gray (covered, adjacent-to-backbone)
// vertex that covers the most still-uncovered vertices. It typically
// beats the BFS-tree bound.
func GreedyCDS(adj [][]int, src int) []int {
	comp := Component(adj, src)
	inComp := make(map[int]bool, len(comp))
	for _, v := range comp {
		inComp[v] = true
	}
	covered := make(map[int]bool, len(comp)) // dominated vertices
	frontier := make(map[int]bool)           // gray: covered and adjacent to backbone
	var cds []int

	blacken := func(v int) {
		cds = append(cds, v)
		covered[v] = true
		delete(frontier, v)
		for _, w := range adj[v] {
			if !inComp[w] {
				continue
			}
			if !covered[w] {
				covered[w] = true
			}
			found := false
			for _, x := range cds {
				if x == w {
					found = true
					break
				}
			}
			if !found {
				frontier[w] = true
			}
		}
	}
	gain := func(v int) int {
		g := 0
		for _, w := range adj[v] {
			if inComp[w] && !covered[w] {
				g++
			}
		}
		return g
	}

	blacken(src)
	for len(covered) < len(comp) {
		best, bestGain := -1, -1
		// Deterministic tie-break: smallest vertex id.
		for _, v := range comp {
			if !frontier[v] {
				continue
			}
			if g := gain(v); g > bestGain || (g == bestGain && best >= 0 && v < best) {
				best, bestGain = v, g
			}
		}
		if best < 0 {
			break // should not happen in a connected component
		}
		blacken(best)
	}
	return cds
}

// AchievableSRB returns a saved-rebroadcast ratio achievable at full
// reachability for a broadcast from src on the given topology:
// 1 - |CDS|/|component|, using the smaller of the greedy and BFS-tree
// CDS constructions. Both are approximations, so the minimum CDS may
// save more. Components of size 1 return 0 (the source must still
// transmit under every scheme modeled here).
func AchievableSRB(points []geom.Point, r float64, src int) float64 {
	adj := UnitDiskAdjacency(points, r)
	comp := Component(adj, src)
	if len(comp) <= 1 {
		return 0
	}
	g := len(GreedyCDS(adj, src))
	b := len(BFSTreeCDS(adj, src))
	best := g
	if b < best {
		best = b
	}
	return 1 - float64(best)/float64(len(comp))
}
