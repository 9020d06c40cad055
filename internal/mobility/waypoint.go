package mobility

import (
	"repro/internal/geom"
	"repro/internal/sim"
)

// Mover is the interface the network layer needs from a mobility model:
// a queryable position and speed.
type Mover interface {
	// Position returns the position at the current simulated time.
	Position() geom.Point
	// PositionAt returns the position at time t within (or near) the
	// current movement segment.
	PositionAt(t sim.Time) geom.Point
	// Speed returns the current speed in m/s.
	Speed() float64
}

var (
	_ Mover = (*Roamer)(nil)
	_ Mover = (*Waypoint)(nil)
)

// WaypointConfig parameterizes the random-waypoint model: the host picks
// a uniform destination in the map, travels there at a uniform speed in
// [MinSpeedMPS, MaxSpeedMPS], pauses for PauseTime, and repeats.
// MinSpeedMPS should be kept above zero to avoid the model's well-known
// speed-decay pathology (hosts stuck crawling forever).
type WaypointConfig struct {
	MinSpeedMPS float64
	MaxSpeedMPS float64
	PauseTime   sim.Duration
}

// DefaultWaypointConfig mirrors common MANET evaluation settings for a
// given top speed in km/h: minimum speed 10% of max, 1 s pause.
func DefaultWaypointConfig(maxSpeedKMH float64) WaypointConfig {
	max := KMHToMPS(maxSpeedKMH)
	return WaypointConfig{
		MinSpeedMPS: max / 10,
		MaxSpeedMPS: max,
		PauseTime:   1 * sim.Second,
	}
}

// Waypoint moves one host using the random-waypoint model. Like Roamer,
// positions are computed lazily in O(1); the only scheduled events are
// leg completions.
type Waypoint struct {
	area  Map
	cfg   WaypointConfig
	rng   *sim.RNG
	sched *sim.Scheduler

	segStart sim.Time
	segEnd   sim.Time // when the current leg (or pause) finishes
	from, to geom.Point
	speed    float64 // 0 while pausing
	next     *sim.Event
}

// NewWaypoint places a host uniformly at random and starts its first
// leg.
func NewWaypoint(sched *sim.Scheduler, area Map, cfg WaypointConfig, rng *sim.RNG) *Waypoint {
	if cfg.MaxSpeedMPS <= 0 {
		panic("mobility: waypoint needs a positive max speed")
	}
	if cfg.MinSpeedMPS <= 0 {
		cfg.MinSpeedMPS = cfg.MaxSpeedMPS / 10
	}
	w := &Waypoint{
		area:  area,
		cfg:   cfg,
		rng:   rng,
		sched: sched,
	}
	w.from = geom.Point{
		X: rng.UniformFloat(0, area.Width),
		Y: rng.UniformFloat(0, area.Height),
	}
	w.to = w.from
	w.segStart = sched.Now()
	w.segEnd = sched.Now()
	w.startLeg()
	return w
}

// startLeg picks the next destination and speed, then schedules arrival.
func (w *Waypoint) startLeg() {
	now := w.sched.Now()
	w.from = w.PositionAt(now)
	w.segStart = now
	w.to = geom.Point{
		X: w.rng.UniformFloat(0, w.area.Width),
		Y: w.rng.UniformFloat(0, w.area.Height),
	}
	w.speed = w.rng.UniformFloat(w.cfg.MinSpeedMPS, w.cfg.MaxSpeedMPS)
	dist := w.from.Dist(w.to)
	travel := sim.DurationFromSeconds(dist / w.speed)
	if travel < 1 {
		travel = 1
	}
	w.segEnd = now.Add(travel)
	w.next = w.sched.Schedule(w.segEnd, w.pause)
}

// pause holds the host at the destination before the next leg.
func (w *Waypoint) pause() {
	now := w.sched.Now()
	w.from = w.to
	w.segStart = now
	w.speed = 0
	w.segEnd = now.Add(w.cfg.PauseTime)
	if w.cfg.PauseTime <= 0 {
		w.startLeg()
		return
	}
	w.next = w.sched.Schedule(w.segEnd, w.startLeg)
}

// PositionAt implements Mover by linear interpolation along the leg.
func (w *Waypoint) PositionAt(t sim.Time) geom.Point {
	if w.speed == 0 || t <= w.segStart {
		return w.from
	}
	if t >= w.segEnd {
		return w.to
	}
	frac := float64(t.Sub(w.segStart)) / float64(w.segEnd.Sub(w.segStart))
	return geom.Point{
		X: w.from.X + (w.to.X-w.from.X)*frac,
		Y: w.from.Y + (w.to.Y-w.from.Y)*frac,
	}
}

// Position implements Mover.
func (w *Waypoint) Position() geom.Point { return w.PositionAt(w.sched.Now()) }

// Speed implements Mover.
func (w *Waypoint) Speed() float64 { return w.speed }
