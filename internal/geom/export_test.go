package geom

// MacroShift returns log2 of the macro-cell edge in fine cells: 0 means
// the macro level coincides with the fine level.
func (g *Grid) MacroShift() int { return g.macroShift }

// Cells returns the grid dimensions in cells (columns, rows). Both are
// zero before the first Rebuild or when the snapshot is empty.
func (g *Grid) Cells() (cols, rows int) { return g.cols, g.rows }
