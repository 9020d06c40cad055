package geom

import "slices"

// Grid is a uniform spatial index over a fixed snapshot of points. It
// answers "which points lie within r of here" in time proportional to
// the local density rather than the population size, which turns the
// channel's per-transmission receiver discovery and the network's
// connected-component walks from O(N) scans into O(deg) lookups.
//
// The grid uses cells of edge length equal to the query radius, so any
// disk of that radius is covered by at most a 3x3 block of cells.
// Rebuild reuses all internal storage; a zero Grid is ready for its
// first Rebuild.
//
// Invariants (relied on by the phy equivalence guarantees):
//   - Within and Neighbors return indices in ascending order, matching
//     what a linear scan over the snapshot produces; Gather returns the
//     same set unsorted.
//   - Queries are exact: candidate cells are filtered by true squared
//     distance, so results are identical to the brute-force scan, not
//     an approximation.
type Grid struct {
	cell       float64
	minX, minY float64
	cols, rows int
	pts        []Point

	// CSR cell layout: items[start[c]:start[c+1]] holds the indices of
	// the points in cell c, ascending (the counting sort below places
	// points in index order).
	start []int32
	items []int32

	// Macro level: a second, coarser grid whose cells are square blocks
	// of 2^macroShift fine cells. Rebuild picks the smallest shift that
	// keeps the macro-cell count at or below maxMacroCells, so on small
	// maps the shift is zero and the macro level coincides with the fine
	// level, while a sparse mega-map (300×300 fine cells) collapses to a
	// few thousand macro cells. Consumers that keep per-cell side tables
	// (the channel's interference buckets) key them by macro cell, so
	// their O(cells) clear/rebuild cost is bounded by maxMacroCells no
	// matter how large the map grows.
	macroShift           int
	macroCols, macroRows int
}

// maxMacroCells bounds the macro-level cell count. 4096 keeps a side
// table of slice headers under 100 KB — small enough to clear per
// snapshot rebuild — while a 64×64 macro layout still localizes queries
// on any map this simulator runs.
const maxMacroCells = 4096

// Rebuild indexes the given snapshot with the given cell edge (normally
// the radio radius). The snapshot slice is retained until the next
// Rebuild; callers must not mutate it while querying.
func (g *Grid) Rebuild(pts []Point, cell float64) {
	if cell <= 0 {
		panic("geom: non-positive grid cell size")
	}
	g.cell = cell
	g.pts = pts
	if len(pts) == 0 {
		g.cols, g.rows = 0, 0
		g.macroShift, g.macroCols, g.macroRows = 0, 0, 0
		return
	}

	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := minX, minY
	for _, p := range pts[1:] {
		minX = min(minX, p.X)
		maxX = max(maxX, p.X)
		minY = min(minY, p.Y)
		maxY = max(maxY, p.Y)
	}
	g.minX, g.minY = minX, minY
	g.cols = int((maxX-minX)/cell) + 1
	g.rows = int((maxY-minY)/cell) + 1

	shift := 0
	for ((g.cols+(1<<shift)-1)>>shift)*((g.rows+(1<<shift)-1)>>shift) > maxMacroCells {
		shift++
	}
	g.macroShift = shift
	g.macroCols = (g.cols + (1 << shift) - 1) >> shift
	g.macroRows = (g.rows + (1 << shift) - 1) >> shift

	ncells := g.cols * g.rows
	if cap(g.start) < ncells+1 {
		g.start = make([]int32, ncells+1)
	} else {
		g.start = g.start[:ncells+1]
		clear(g.start)
	}
	if cap(g.items) < len(pts) {
		g.items = make([]int32, len(pts))
	} else {
		g.items = g.items[:len(pts)]
	}

	// Counting sort by cell: count, prefix-sum, place. Placing in point
	// order keeps each cell's index list ascending.
	for _, p := range pts {
		g.start[g.cellIndex(p)+1]++
	}
	for c := 0; c < ncells; c++ {
		g.start[c+1] += g.start[c]
	}
	// The second pass uses start[c] as the write cursor for cell c;
	// after placing, start[c] holds the end of cell c, i.e. the start of
	// cell c+1, so one shift restores the offsets.
	for i, p := range pts {
		c := g.cellIndex(p)
		g.items[g.start[c]] = int32(i)
		g.start[c]++
	}
	copy(g.start[1:], g.start[:ncells])
	g.start[0] = 0
}

// cellIndex maps a point to its row-major cell index.
func (g *Grid) cellIndex(p Point) int32 {
	cx := int((p.X - g.minX) / g.cell)
	cy := int((p.Y - g.minY) / g.cell)
	// Guard against floating-point edge effects on the max boundary.
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return int32(cy*g.cols + cx)
}

// CellOf returns the clamped cell coordinates containing p. Points
// outside the indexed bounding box map to the nearest boundary cell, so
// the result is always a valid coordinate pair for a non-empty grid.
// Row-major cell index = cy*cols + cx.
func (g *Grid) CellOf(p Point) (cx, cy int) {
	cx = clampCell(int((p.X-g.minX)/g.cell), g.cols)
	cy = clampCell(int((p.Y-g.minY)/g.cell), g.rows)
	return cx, cy
}

// CellRange returns the clamped cell-coordinate rectangle covering the
// disk of radius r around p: any point q with Dist(p, q) <= r has
// CellOf(q) within [cx0, cx1] x [cy0, cy1]. Because both CellOf and the
// range endpoints clamp into the grid, the covering property holds even
// for disks that extend past (or centers that lie outside) the indexed
// bounding box — out-of-bounds points collapse into boundary cells the
// range then includes. Callers iterate the rectangle for neighborhood
// scans wider than the 3x3 block the cell = radius layout gives Within
// (e.g. the channel's radius-2r interference queries).
func (g *Grid) CellRange(p Point, r float64) (cx0, cy0, cx1, cy1 int) {
	cx0 = clampCell(int((p.X-r-g.minX)/g.cell), g.cols)
	cx1 = clampCell(int((p.X+r-g.minX)/g.cell), g.cols)
	cy0 = clampCell(int((p.Y-r-g.minY)/g.cell), g.rows)
	cy1 = clampCell(int((p.Y+r-g.minY)/g.cell), g.rows)
	return cx0, cy0, cx1, cy1
}

// Within appends to buf every index i with Dist(pts[i], p) <= r, in
// ascending order, and returns the extended slice: Gather's answer,
// sorted.
func (g *Grid) Within(p Point, r float64, buf []int) []int {
	from := len(buf)
	buf = g.Gather(p, r, buf)
	slices.Sort(buf[from:])
	return buf
}

// Gather appends to buf every index i with Dist(pts[i], p) <= r, in an
// unspecified order, and returns the extended slice. The result is
// gathered row by row (a row's cells are adjacent in the CSR layout);
// a caller that filters it further sorts only what survives.
func (g *Grid) Gather(p Point, r float64, buf []int) []int {
	if len(g.pts) == 0 {
		return buf
	}
	cx0, cy0, cx1, cy1 := g.CellRange(p, r)
	r2 := r * r
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * g.cols
		lo, hi := g.start[row+cx0], g.start[row+cx1+1]
		for _, i := range g.items[lo:hi] {
			if g.pts[i].Dist2(p) <= r2 {
				buf = append(buf, int(i))
			}
		}
	}
	return buf
}

// Neighbors is Within(pts[i], r) excluding i itself: the unit-disk
// neighbor set of point i, ascending.
func (g *Grid) Neighbors(i int, r float64, buf []int) []int {
	from := len(buf)
	buf = g.Within(g.pts[i], r, buf)
	for k := from; k < len(buf); k++ {
		if buf[k] == i {
			return append(buf[:k], buf[k+1:]...)
		}
	}
	return buf
}

func clampCell(c, n int) int {
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

// MacroCells returns the macro-level dimensions (columns, rows). Both
// are zero before the first Rebuild or when the snapshot is empty. The
// product never exceeds maxMacroCells.
func (g *Grid) MacroCells() (cols, rows int) { return g.macroCols, g.macroRows }

// MacroOf returns the clamped macro-cell coordinates containing p:
// CellOf shifted down to the macro level, so the same clamping rules
// apply. Row-major macro index = my*macroCols + mx.
func (g *Grid) MacroOf(p Point) (mx, my int) {
	cx, cy := g.CellOf(p)
	return cx >> g.macroShift, cy >> g.macroShift
}

// MacroRange returns the clamped macro-cell rectangle covering the disk
// of radius r around p: any point q with Dist(p, q) <= r has MacroOf(q)
// within [mx0, mx1] x [my0, my1]. It inherits CellRange's covering
// property — shifting both endpoints of a fine-cell interval down
// preserves containment of every shifted fine cell in between.
func (g *Grid) MacroRange(p Point, r float64) (mx0, my0, mx1, my1 int) {
	cx0, cy0, cx1, cy1 := g.CellRange(p, r)
	s := g.macroShift
	return cx0 >> s, cy0 >> s, cx1 >> s, cy1 >> s
}
