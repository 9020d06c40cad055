package geom_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// Boundary audit for the grid's clamp arithmetic: points sitting exactly
// on the indexed bounding box's max edge, query centers on exact
// cell-multiple coordinates, and CellRange disks that straddle the
// clamp. Every query must match the brute-force scan bit for bit — an
// off-by-one in cellIndex/CellOf/CellRange shows up here as a dropped or
// duplicated index.
func TestGridBoundaryExactEdges(t *testing.T) {
	const cell = 100.0
	// A lattice whose extremes land exactly on cell multiples, plus the
	// four corners and points epsilon inside/outside the max edge.
	var pts []geom.Point
	for x := 0.0; x <= 500; x += 100 {
		for y := 0.0; y <= 300; y += 100 {
			pts = append(pts, geom.Point{X: x, Y: y})
		}
	}
	maxX, maxY := 500.0, 300.0
	pts = append(pts,
		geom.Point{X: maxX, Y: maxY},
		geom.Point{X: math.Nextafter(maxX, 0), Y: maxY},
		geom.Point{X: maxX, Y: math.Nextafter(maxY, 0)},
		geom.Point{X: 0, Y: maxY},
		geom.Point{X: maxX, Y: 0},
	)
	var g geom.Grid
	g.Rebuild(pts, cell)

	queries := []geom.Point{
		{X: 0, Y: 0}, {X: maxX, Y: maxY}, {X: maxX, Y: 0}, {X: 0, Y: maxY},
		{X: 200, Y: 200},                     // interior exact multiple
		{X: maxX + cell, Y: maxY + cell},     // beyond the max corner
		{X: -cell, Y: -cell},                 // beyond the min corner
		{X: maxX - 1e-9, Y: maxY - 1e-9},     // just inside the edge
		{X: maxX + 1e-9, Y: maxY + 1e-9},     // just outside the edge
		{X: 250, Y: maxY}, {X: maxX, Y: 150}, // mid-edge
	}
	radii := []float64{0, 1e-9, cell / 2, cell, cell * 1.5, 2 * cell, 10 * cell}
	for _, p := range queries {
		for _, r := range radii {
			got := g.Within(p, r, nil)
			want := bruteWithin(pts, p, r)
			if !slices.Equal(got, want) {
				t.Fatalf("Within(%+v, %g): got %v want %v", p, r, got, want)
			}
		}
	}
}

// CellRange disks whose edges land exactly on cell boundaries, or whose
// centers sit outside the box so one or both range endpoints clamp, must
// still cover every in-disk point's cell and stay within the grid.
func TestGridCellRangeStraddlesClamp(t *testing.T) {
	var g geom.Grid
	pts := []geom.Point{{X: 0, Y: 0}, {X: 400, Y: 400}}
	g.Rebuild(pts, 100) // 5x5 cells over [0,400]^2
	cols, rows := g.Cells()

	cases := []struct {
		p geom.Point
		r float64
	}{
		{geom.Point{X: 200, Y: 200}, 100},  // edges exactly on cell lines
		{geom.Point{X: 200, Y: 200}, 200},  // edges exactly on the box border
		{geom.Point{X: 0, Y: 0}, 100},      // min-corner center, left half clamps
		{geom.Point{X: 400, Y: 400}, 100},  // max-corner center, right half clamps
		{geom.Point{X: -150, Y: 200}, 100}, // disk entirely left of the box
		{geom.Point{X: 550, Y: 200}, 100},  // disk entirely right of the box
		{geom.Point{X: -50, Y: -50}, 300},  // disk straddling the min corner
		{geom.Point{X: 450, Y: 450}, 300},  // disk straddling the max corner
		{geom.Point{X: 200, Y: 200}, 1e6},  // disk dwarfing the box
	}
	for _, tc := range cases {
		cx0, cy0, cx1, cy1 := g.CellRange(tc.p, tc.r)
		if cx0 < 0 || cy0 < 0 || cx1 >= cols || cy1 >= rows || cx0 > cx1 || cy0 > cy1 {
			t.Fatalf("CellRange(%+v, %g) = (%d,%d)-(%d,%d) invalid for %dx%d grid",
				tc.p, tc.r, cx0, cy0, cx1, cy1, cols, rows)
		}
		// Sample the disk boundary and interior: every sampled point's
		// clamped cell must fall inside the rectangle.
		for k := 0; k < 64; k++ {
			ang := float64(k) / 64 * 2 * math.Pi
			for _, rad := range []float64{tc.r, tc.r / 2, 0} {
				q := geom.Point{X: tc.p.X + rad*math.Cos(ang), Y: tc.p.Y + rad*math.Sin(ang)}
				qx, qy := g.CellOf(q)
				if qx < cx0 || qx > cx1 || qy < cy0 || qy > cy1 {
					t.Fatalf("q=%+v (cell %d,%d) escapes CellRange(%+v, %g) = (%d,%d)-(%d,%d)",
						q, qx, qy, tc.p, tc.r, cx0, cy0, cx1, cy1)
				}
			}
		}
	}
}

// Randomized boundary property sweep: snapshots whose coordinates are
// drawn from a lattice (so ties with cell edges are common, not
// measure-zero), queried at lattice points, box corners, and the exact
// max edge, always against the brute-force reference.
func TestGridBoundaryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var g geom.Grid
	for trial := 0; trial < 200; trial++ {
		cell := []float64{50, 100, 250}[rng.Intn(3)]
		n := 1 + rng.Intn(80)
		pts := make([]geom.Point, n)
		for i := range pts {
			// Half the points on the cell lattice, half uniform.
			if rng.Intn(2) == 0 {
				pts[i] = geom.Point{
					X: float64(rng.Intn(12)) * cell,
					Y: float64(rng.Intn(12)) * cell,
				}
			} else {
				pts[i] = geom.Point{X: rng.Float64() * 11 * cell, Y: rng.Float64() * 11 * cell}
			}
		}
		g.Rebuild(pts, cell)
		for k := 0; k < 10; k++ {
			var p geom.Point
			switch rng.Intn(3) {
			case 0: // lattice point
				p = geom.Point{X: float64(rng.Intn(13)-1) * cell, Y: float64(rng.Intn(13)-1) * cell}
			case 1: // an indexed point (often on the bounding-box edge)
				p = pts[rng.Intn(n)]
			default: // uniform, extending past the box
				p = geom.Point{X: rng.Float64()*14*cell - cell, Y: rng.Float64()*14*cell - cell}
			}
			r := []float64{0, cell / 2, cell, 2 * cell, rng.Float64() * 4 * cell}[rng.Intn(5)]
			got := g.Within(p, r, nil)
			want := bruteWithin(pts, p, r)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: Within(%+v, %g): got %v want %v", trial, p, r, got, want)
			}
		}
	}
}
