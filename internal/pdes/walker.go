package pdes

import "repro/internal/geom"

// crossCap bounds each border channel. Crossings beyond the capacity
// spill to a phase-local slice the owner drains at the next barrier, so
// a send never blocks and the protocol cannot deadlock.
const crossCap = 256

// NeighborFunc answers a walk's adjacency query: it appends u's
// neighbors to buf and returns the extended slice. The order of the
// appended neighbors is unspecified: the walk counts members, so a
// caller need not sort them. Band workers call it concurrently,
// so it must be safe for simultaneous calls with distinct buffers (pure
// reads of shared state are fine).
type NeighborFunc func(u int, buf []int) []int

// Walker computes connected-component sizes using a band-parallel
// breadth-first walk. The map is cut into horizontal bands of grid
// rows, one per pool worker; each band owns the nodes whose snapshot
// cell row falls inside it and is the only writer of their visited
// marks. Discoveries that cross a band border are handed to the owning
// band over a bounded channel (spilling to a phase-local slice when the
// channel is full); the pool barrier between the expand and deliver
// phases makes the spill slices safely visible to their readers. With a
// fresh snapshot a neighbor is at most one cell row away, so crossings
// target adjacent bands; with a stale one they can reach one band
// further, which the channel indexing handles the same way.
//
// Adjacency comes from the caller's NeighborFunc — typically an
// exact-over-stale query that filters grid candidates by live position —
// so the snapshot only decides band ownership, never membership. The
// walk returns exactly the component cardinality a sequential BFS over
// the same NeighborFunc produces (band decomposition and the order
// within an adjacency list change visit order, never membership), which
// is what keeps the sharded engine's summaries byte-identical to the
// sequential oracle's.
type Walker struct {
	pool *Pool

	// Band-partition cache: bandOf is valid for exactly one
	// (grid, rev, bands, n) tuple. Reachability is queried once per
	// broadcast record, far more often than the snapshot is rebuilt, so
	// most walks reuse the partition and skip the per-node CellOf pass.
	cachedGrid  *geom.Grid
	cachedRev   uint64
	cachedBands int
	cachedN     int

	visited []bool
	bandOf  []uint8
	stack   [][]int32 // per-band local work stack (expand phase)
	next    [][]int32 // per-band frontier for the next round
	spill   [][]int32 // [src*bands+dst] overflow crossings
	cross   []chan int32
	nbr     [][]int // per-band grid query scratch
	counts  []int
}

// NewWalker returns a walker running on the given pool. A nil pool
// yields a purely sequential walker.
func NewWalker(pool *Pool) *Walker {
	return &Walker{pool: pool}
}

// Count returns the number of nodes connected to src (including src)
// under the adjacency relation neigh defines. grid must be built over
// snap; it partitions the nodes into bands but contributes no edges.
// rev identifies the snapshot the grid was built over: callers bump it
// on every rebuild, and equal (grid, rev) pairs may reuse the walker's
// cached band partition. The walk stops as soon as all len(snap) nodes
// are found, so on a connected graph it makes far fewer than one
// adjacency query per node.
func (w *Walker) Count(grid *geom.Grid, rev uint64, snap []geom.Point, src int, neigh NeighborFunc) int {
	n := len(snap)
	if n == 0 {
		return 0
	}
	_, rows := grid.Cells()
	bands := 0
	if w.pool != nil {
		bands = min(w.pool.Workers(), rows)
	}
	if bands <= 1 {
		return w.countSequential(n, src, neigh)
	}
	w.prepare(n, bands)

	// Band assignment, in parallel over disjoint index ranges — skipped
	// entirely when the partition cache still matches the snapshot.
	// floor(cy*bands/rows) moves by at most one band per cell row,
	// which is the adjacency bound the border protocol relies on.
	if w.cachedGrid != grid || w.cachedRev != rev || w.cachedBands != bands || w.cachedN != n {
		w.pool.Do(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				_, cy := grid.CellOf(snap[i])
				w.bandOf[i] = uint8(cy * bands / rows)
			}
		})
		w.cachedGrid, w.cachedRev = grid, rev
		w.cachedBands, w.cachedN = bands, n
	}
	clear(w.visited)

	home := int(w.bandOf[src])
	w.visited[src] = true
	w.counts[home] = 1
	w.stack[home] = append(w.stack[home], int32(src))

	for {
		// Expand: each band runs its local stack to closure, marking
		// same-band discoveries immediately and handing cross-band ones
		// to the owner (channel first, spill on overflow). Do partitions
		// the band range across workers, so each band's state has exactly
		// one writer per phase.
		w.pool.Do(bands, func(_, blo, bhi int) {
			for b := blo; b < bhi; b++ {
				stack := w.stack[b]
				for len(stack) > 0 {
					u := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					w.nbr[b] = neigh(int(u), w.nbr[b][:0])
					for _, v := range w.nbr[b] {
						d := int(w.bandOf[v])
						if d == b {
							if !w.visited[v] {
								w.visited[v] = true
								w.counts[b]++
								stack = append(stack, int32(v))
							}
							continue
						}
						select {
						case w.cross[d] <- int32(v):
						default:
							w.spill[b*bands+d] = append(w.spill[b*bands+d], int32(v))
						}
					}
				}
				w.stack[b] = stack[:0]
			}
		})
		// Deliver: each band drains its channel and every spill slice
		// aimed at it, deduplicating against its own visited marks.
		w.pool.Do(bands, func(_, blo, bhi int) {
			for b := blo; b < bhi; b++ {
				next := w.next[b]
			drain:
				for {
					select {
					case v := <-w.cross[b]:
						if !w.visited[v] {
							w.visited[v] = true
							w.counts[b]++
							next = append(next, v)
						}
					default:
						break drain
					}
				}
				for s := 0; s < bands; s++ {
					sl := w.spill[s*bands+b]
					for _, v := range sl {
						if !w.visited[v] {
							w.visited[v] = true
							w.counts[b]++
							next = append(next, v)
						}
					}
					w.spill[s*bands+b] = sl[:0]
				}
				w.next[b] = next
			}
		})
		frontier, count := 0, 0
		for d := 0; d < bands; d++ {
			w.stack[d], w.next[d] = w.next[d], w.stack[d][:0]
			frontier += len(w.stack[d])
			count += w.counts[d]
		}
		// Done when no band has work left — or when every node is already
		// found: a component cannot exceed the population, so what is
		// still on the stacks could only rediscover marked nodes. (The
		// deliver phase above has emptied the channels and spills;
		// prepare truncates the stacks before the next walk.)
		if frontier == 0 || count == n {
			return count
		}
	}
}

// prepare sizes the per-band state for n nodes and the given band count.
func (w *Walker) prepare(n, bands int) {
	if cap(w.visited) < n {
		w.visited = make([]bool, n)
		w.bandOf = make([]uint8, n)
	}
	w.visited = w.visited[:n]
	w.bandOf = w.bandOf[:n]
	for len(w.stack) < bands {
		w.stack = append(w.stack, nil)
		w.next = append(w.next, nil)
		w.nbr = append(w.nbr, nil)
	}
	if len(w.spill) < bands*bands {
		w.spill = make([][]int32, bands*bands)
	}
	for len(w.cross) < bands {
		w.cross = append(w.cross, make(chan int32, crossCap))
	}
	if cap(w.counts) < bands {
		w.counts = make([]int, bands)
	}
	w.counts = w.counts[:bands]
	for i := range w.counts {
		w.counts[i] = 0
	}
	for i := 0; i < bands; i++ {
		w.stack[i] = w.stack[i][:0]
		w.next[i] = w.next[i][:0]
	}
}

// countSequential is the single-threaded fallback (and oracle) walk.
func (w *Walker) countSequential(n, src int, neigh NeighborFunc) int {
	if cap(w.visited) < n {
		w.visited = make([]bool, n)
		w.bandOf = make([]uint8, n)
	}
	w.visited = w.visited[:n]
	for i := range w.visited {
		w.visited[i] = false
	}
	if len(w.stack) == 0 {
		w.stack = append(w.stack, nil)
		w.nbr = append(w.nbr, nil)
	}
	stack := w.stack[0][:0]
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
		w.nbr[0] = neigh(int(u), w.nbr[0][:0])
		for _, v := range w.nbr[0] {
			if !w.visited[v] {
				w.visited[v] = true
				count++
				stack = append(stack, int32(v))
			}
		}
	}
	w.stack[0] = stack[:0]
	return count
}
