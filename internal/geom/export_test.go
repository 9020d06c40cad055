package geom

// MacroShift returns log2 of the macro-cell edge in fine cells: 0 means
// the macro level coincides with the fine level.
func (g *Grid) MacroShift() int { return g.macroShift }
