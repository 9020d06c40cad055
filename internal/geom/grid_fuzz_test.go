package geom_test

import (
	"slices"
	"testing"

	"repro/internal/geom"
)

// FuzzGridWithin holds the grid's queries to the ascending brute-force
// scan on whatever layout the fuzzer finds. Two bytes place a point on a
// lattice of 1/32 cell over an 8 x 8-cell square, so coincident points
// and points on cell edges are common; the query point ranges two cells
// past the square on every side; and the radius runs from 0.1 to 3
// cells, so a query visits 1 to 49 cells. The buffer contract is pinned
// too: buf arrives with up to three sentinel entries that must survive
// and with 0 to 504 entries of spare capacity (so the result sometimes
// fits in place and sometimes grows a new array), and a query may
// clobber buf[len:cap] only — the guard entries past cap in the same
// backing array must come back untouched. The seeds under
// testdata/fuzz/FuzzGridWithin cover a single-cell query over coincident
// points, the 3 x 3 block of an exact-snapshot query, the 4 x 4 block of
// a drift-inflated one (spare capacity too short), a 7 x 7 block, and a
// query from outside the indexed box.
func FuzzGridWithin(f *testing.F) {
	const cell = 500.0
	const guard = -9
	f.Fuzz(func(t *testing.T, raw []byte, qx, qy, rad, prefix byte) {
		pts := make([]geom.Point, len(raw)/2)
		for i := range pts {
			pts[i] = geom.Point{X: float64(raw[2*i]) * cell / 32, Y: float64(raw[2*i+1]) * cell / 32}
		}
		var g geom.Grid
		g.Rebuild(pts, cell)
		p := geom.Point{X: (float64(qx)/256*12 - 2) * cell, Y: (float64(qy)/256*12 - 2) * cell}
		r := (0.1 + 2.9*float64(rad)/255) * cell
		sentinels := []int{-1, -2, -3}[:prefix%4]
		spare := int(prefix>>2) * 8

		check := func(what string, query func(buf []int) []int, want []int) {
			t.Helper()
			arr := make([]int, len(sentinels)+spare+8)
			copy(arr, sentinels)
			guards := arr[len(sentinels)+spare:]
			for i := range guards {
				guards[i] = guard
			}
			got := query(arr[: len(sentinels) : len(sentinels)+spare])
			if !slices.Equal(got[:len(sentinels)], sentinels) {
				t.Fatalf("%s: buf prefix became %v, want %v", what, got[:len(sentinels)], sentinels)
			}
			if got = got[len(sentinels):]; !slices.Equal(got, want) {
				t.Fatalf("%s p=%v r=%v over %d points: got %v, want %v", what, p, r, len(pts), got, want)
			}
			if slices.ContainsFunc(guards, func(v int) bool { return v != guard }) {
				t.Fatalf("%s wrote past cap(buf): guards became %v", what, guards)
			}
		}
		check("Within", func(buf []int) []int { return g.Within(p, r, buf) }, bruteWithin(pts, p, r))
		if len(pts) == 0 {
			return
		}
		i := int(qx) % len(pts)
		want := slices.DeleteFunc(bruteWithin(pts, pts[i], r), func(j int) bool { return j == i })
		check("Neighbors", func(buf []int) []int { return g.Neighbors(i, r, buf) }, want)
	})
}
