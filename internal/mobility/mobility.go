// Package mobility implements the random-turn roaming model from the
// paper's simulation section: each host moves as a series of turns; in
// each turn the direction is uniform in [0, 360 degrees), the duration
// uniform in [1, 100] seconds, and the speed uniform in [0, max]. Hosts
// reflect off the map borders.
//
// Positions are computed lazily and exactly: a Roamer stores the segment
// start state and derives the position at any queried time in O(1) using
// the reflection-folding trick, so the simulator never has to tick
// per-host position updates.
package mobility

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/sim"
)

// Map is the rectangular simulation area. The paper uses square maps of
// k x k units where one unit is 500 m (the radio radius).
type Map struct {
	Width, Height float64 // meters
}

// NewSquareMap returns a units x units map with the given unit length in
// meters (the paper's unit is the 500 m transmission radius).
func NewSquareMap(units int, unitMeters float64) Map {
	side := float64(units) * unitMeters
	return Map{Width: side, Height: side}
}

// String describes the map in paper units if it is square.
func (m Map) String() string {
	return fmt.Sprintf("%.0fm x %.0fm", m.Width, m.Height)
}

// Config carries the turn-model parameters. The zero value is not
// usable; use DefaultConfig as a base.
type Config struct {
	MaxSpeedMPS float64      // maximum speed, meters/second
	MinTurn     sim.Duration // minimum turn duration
	MaxTurn     sim.Duration // maximum turn duration
}

// DefaultConfig returns the paper's turn parameters: turn intervals
// uniform in [1, 100] seconds and the given maximum speed in km/h.
func DefaultConfig(maxSpeedKMH float64) Config {
	return Config{
		MaxSpeedMPS: KMHToMPS(maxSpeedKMH),
		MinTurn:     1 * sim.Second,
		MaxTurn:     100 * sim.Second,
	}
}

// KMHToMPS converts km/h to m/s.
func KMHToMPS(kmh float64) float64 { return kmh / 3.6 }

// Shared is what every Roamer of one world has in common: the map, the
// turn model and the scheduler. Roamers reach it through one pointer,
// so none of it is paid per host.
type Shared struct {
	area  Map
	cfg   Config
	sched *sim.Scheduler
}

// NewShared returns the shared block for the roamers of one world.
// Static roamers never read its turn model.
func NewShared(sched *sim.Scheduler, area Map, cfg Config) *Shared {
	return &Shared{area: area, cfg: cfg, sched: sched}
}

// Roamer moves one host around a Map using the random-turn model. It is
// driven by the shared scheduler: it schedules its own next-turn events.
type Roamer struct {
	w   *Shared
	rng *sim.RNG

	// Current segment: position at segStart moving with (vx, vy); the
	// actual position reflects off the borders (handled by folding).
	segStart sim.Time
	origin   geom.Point
	vx, vy   float64

	// Previous segment, kept so a position query that logically precedes
	// the latest turn (shared clock still behind turnAt) resolves on the
	// segment the sequential oracle would use. The parallel engine fires
	// a turn early — inside a barrier window, ahead of the shared clock —
	// and clamps the window to MinTurn, so at most one turn fires per
	// window and one segment of history is always enough.
	prevStart      sim.Time
	prevOrigin     geom.Point
	prevVx, prevVy float64
	turnAt         sim.Time
	hasPrev        bool
	stopped        bool

	turnEvent *sim.Event

	// shard routes turn events to a shard calendar wheel when >= 0; the
	// sequential engine leaves it at -1 and schedules on the central
	// ladder. Either way events fire in identical (time, seq) order.
	shard int

	// firstTurn holds the first turn interval between InitRoamer (which
	// performs every random draw) and Start (which schedules it).
	firstTurn sim.Duration
}

// NewRoamer places a host uniformly at random on the map and starts its
// first movement turn, with a Shared block of its own. The roamer keeps
// scheduling turns until Stop.
func NewRoamer(sched *sim.Scheduler, area Map, cfg Config, rng *sim.RNG) *Roamer {
	r := new(Roamer)
	InitRoamer(r, NewShared(sched, area, cfg), rng)
	r.Start()
	return r
}

// InitRoamer initializes a caller-allocated (typically slab) Roamer in
// place over the world's Shared block: it performs every random draw of
// the first segment (placement, then speed, direction and turn
// interval) and defers arming the first turn to Start. The split lets a
// host builder run the draw phase in parallel across hosts (each host
// owns its forked rng) and then arm first turns sequentially in host
// order, so their event sequence numbers do not depend on worker
// scheduling. Turn events go to the central ladder unless SetShard
// routes them to a shard calendar wheel before Start.
func InitRoamer(r *Roamer, w *Shared, rng *sim.RNG) {
	*r = Roamer{
		w:     w,
		rng:   rng,
		shard: -1,
		origin: geom.Point{
			X: rng.UniformFloat(0, w.area.Width),
			Y: rng.UniformFloat(0, w.area.Height),
		},
		segStart: w.sched.Now(),
	}
	speed := rng.UniformFloat(0, w.cfg.MaxSpeedMPS)
	dir := rng.Angle()
	r.vx = speed * cos(dir)
	r.vy = speed * sin(dir)
	r.firstTurn = rng.UniformDuration(w.cfg.MinTurn, w.cfg.MaxTurn)
}

// SetShard routes future turn events to the given shard's calendar
// wheel (< 0 = central ladder). Call between InitRoamer and Start: the
// sharded engine derives the shard from the host's initial map band,
// which is only known after InitRoamer has drawn the placement.
func (r *Roamer) SetShard(shard int) { r.shard = shard }

// Start schedules the first turn of an InitRoamer-initialized roamer.
// It must be called exactly once, before the clock advances past the
// initialization time.
func (r *Roamer) Start() {
	r.scheduleTurn(r.firstTurn)
}

// NewStaticRoamer places a host at a fixed point with no movement. It is
// used by tests and by density-only experiments.
func NewStaticRoamer(w *Shared, at geom.Point) *Roamer {
	return &Roamer{
		w:        w,
		shard:    -1,
		origin:   at,
		segStart: w.sched.Now(),
		stopped:  true,
	}
}

// turn starts a new movement segment and schedules the following turn.
// RunEvent fires a scheduled turn. Scheduling the roamer itself as a
// sim.Runner keeps the recurring timer allocation-free: binding r.turn
// as a func() would heap-allocate a method value per arm.
func (r *Roamer) RunEvent() { r.turn() }

func (r *Roamer) turn() {
	// NowFor reads the lane clock when this turn fires inside a parallel
	// drain (the shared clock is still parked at the window start there),
	// and the shared clock otherwise — in both cases the event's own
	// timestamp, exactly what the oracle's Now() returns.
	now := r.w.sched.NowFor(r.shard)
	r.prevStart, r.prevOrigin = r.segStart, r.origin
	r.prevVx, r.prevVy = r.vx, r.vy
	r.turnAt, r.hasPrev = now, true
	r.origin = r.rawPositionAt(now)
	r.segStart = now

	speed := r.rng.UniformFloat(0, r.w.cfg.MaxSpeedMPS)
	dir := r.rng.Angle()
	r.vx = speed * cos(dir)
	r.vy = speed * sin(dir)

	interval := r.rng.UniformDuration(r.w.cfg.MinTurn, r.w.cfg.MaxTurn)
	r.scheduleTurn(interval)
}

// scheduleTurn arms the next turn event on the roamer's shard wheel, or
// on the central ladder when the roamer is unsharded.
func (r *Roamer) scheduleTurn(interval sim.Duration) {
	if r.shard >= 0 {
		r.turnEvent = r.w.sched.AfterShardRunner(r.shard, interval, r)
	} else {
		r.turnEvent = r.w.sched.AfterRunner(interval, r)
	}
}

// rawPositionAt computes the reflected position at time t >= segStart.
func (r *Roamer) rawPositionAt(t sim.Time) geom.Point {
	dt := t.Sub(r.segStart).Seconds()
	return geom.Point{
		X: geom.FoldIntoRange(r.origin.X+r.vx*dt, r.w.area.Width),
		Y: geom.FoldIntoRange(r.origin.Y+r.vy*dt, r.w.area.Height),
	}
}

// Position returns the host position at the current simulated time.
func (r *Roamer) Position() geom.Point {
	return r.PositionAt(r.w.sched.Now())
}

// PositionAt returns the position at an arbitrary time within the
// current segment. Querying a past time before the segment start
// extrapolates backwards along the segment, which is adequate for the
// sub-millisecond lookbacks the PHY performs. When the latest turn fired
// ahead of the shared clock (parallel drain) the query resolves on the
// pre-turn segment, reproducing the oracle's answer — including its
// backward extrapolation — until the clock catches up to the turn.
func (r *Roamer) PositionAt(t sim.Time) geom.Point {
	if r.hasPrev && r.w.sched.Now() < r.turnAt {
		dt := t.Sub(r.prevStart).Seconds()
		return geom.Point{
			X: geom.FoldIntoRange(r.prevOrigin.X+r.prevVx*dt, r.w.area.Width),
			Y: geom.FoldIntoRange(r.prevOrigin.Y+r.prevVy*dt, r.w.area.Height),
		}
	}
	return r.rawPositionAt(t)
}

// Speed returns the current speed in m/s, on the same segment selection
// as PositionAt.
func (r *Roamer) Speed() float64 {
	if r.hasPrev && r.w.sched.Now() < r.turnAt {
		return hypot(r.prevVx, r.prevVy)
	}
	return hypot(r.vx, r.vy)
}
