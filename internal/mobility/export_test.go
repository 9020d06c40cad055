package mobility

import "repro/internal/geom"

// Contains reports whether p lies inside the map (inclusive borders).
func (m Map) Contains(p geom.Point) bool {
	return p.X >= 0 && p.X <= m.Width && p.Y >= 0 && p.Y <= m.Height
}

// Stop cancels future turns; the host freezes at its current position.
func (r *Roamer) Stop() {
	if r.stopped {
		return
	}
	r.origin = r.Position()
	r.segStart = r.sched.Now()
	r.vx, r.vy = 0, 0
	r.stopped = true
	if r.turnEvent != nil {
		r.sched.Cancel(r.turnEvent)
		r.turnEvent = nil
	}
}
