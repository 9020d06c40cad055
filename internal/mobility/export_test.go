package mobility

import "repro/internal/geom"

// Contains reports whether p lies inside the map (inclusive borders).
func (m Map) Contains(p geom.Point) bool {
	return p.X >= 0 && p.X <= m.Width && p.Y >= 0 && p.Y <= m.Height
}
