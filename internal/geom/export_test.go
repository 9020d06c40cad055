package geom

// Cells returns the grid dimensions in cells (columns, rows). Both are
// zero before the first Rebuild or when the snapshot is empty.
func (g *Grid) Cells() (cols, rows int) { return g.cols, g.rows }

// CellOf returns the clamped cell coordinates containing p. Points
// outside the indexed bounding box map to the nearest boundary cell, so
// the result is always a valid coordinate pair for a non-empty grid.
// Row-major cell index = cy*cols + cx.
func (g *Grid) CellOf(p Point) (cx, cy int) {
	cx = clampCell(int((p.X-g.minX)/g.cell), g.cols)
	cy = clampCell(int((p.Y-g.minY)/g.cell), g.rows)
	return cx, cy
}
