package mobility

import (
	"math"

	"repro/internal/geom"
	"repro/internal/sim"
)

// GroupConfig parameterizes reference-point group mobility (RPGM): a
// logical group center roams the map with the random-turn model, and
// each member jitters around its own reference point at a bounded offset
// from the center. Search parties, convoys, and squads — the scenarios
// the paper's introduction names — move this way.
type GroupConfig struct {
	// Center is the movement of the group's logical center.
	Center Config
	// Spread is the maximum distance of a member's reference point from
	// the center, meters.
	Spread float64
	// JitterSpeedMPS bounds the member's own movement around its
	// reference point.
	JitterSpeedMPS float64
}

// DefaultGroupConfig returns a group that roams at the given speed with
// members within 200 m of the center, jittering at walking pace.
func DefaultGroupConfig(maxSpeedKMH float64) GroupConfig {
	return GroupConfig{
		Center:         DefaultConfig(maxSpeedKMH),
		Spread:         200,
		JitterSpeedMPS: 1.5,
	}
}

// Group is the shared center of one mobility group. Create it once, then
// attach members.
type Group struct {
	center *Roamer
	cfg    GroupConfig
	area   Map
	sched  *sim.Scheduler
}

// NewGroup creates a group whose center starts at a random position.
func NewGroup(sched *sim.Scheduler, area Map, cfg GroupConfig, rng *sim.RNG) *Group {
	if cfg.Spread < 0 {
		panic("mobility: negative group spread")
	}
	return &Group{
		center: NewRoamer(sched, area, cfg.Center, rng),
		cfg:    cfg,
		area:   area,
		sched:  sched,
	}
}

// Member is one host following a group: its position is the group
// center plus its reference offset plus slow personal jitter, clamped to
// the map.
type Member struct {
	group  *Group
	offset geom.Point // reference point relative to the center
	jitter *Roamer    // personal wander around the reference point
}

var _ Mover = (*Member)(nil)

// NewMember attaches a member at a random reference offset.
func (g *Group) NewMember(rng *sim.RNG) *Member {
	ang := rng.Angle()
	rad := g.cfg.Spread * math.Sqrt(rng.Float64())
	jitterArea := Map{Width: 2 * g.cfg.Spread, Height: 2 * g.cfg.Spread}
	jcfg := Config{
		MaxSpeedMPS: g.cfg.JitterSpeedMPS,
		MinTurn:     1 * sim.Second,
		MaxTurn:     30 * sim.Second,
	}
	return &Member{
		group:  g,
		offset: geom.Point{X: rad * math.Cos(ang), Y: rad * math.Sin(ang)},
		jitter: NewRoamer(g.sched, jitterArea, jcfg, rng),
	}
}

// PositionAt implements Mover.
func (m *Member) PositionAt(t sim.Time) geom.Point {
	c := m.group.center.PositionAt(t)
	j := m.jitter.PositionAt(t)
	// The jitter roamer wanders a [0,2s]x[0,2s] box; recenter it to
	// [-s,s] around the reference point.
	p := geom.Point{
		X: c.X + m.offset.X + (j.X - m.group.cfg.Spread),
		Y: c.Y + m.offset.Y + (j.Y - m.group.cfg.Spread),
	}
	return geom.Point{
		X: geom.Clamp(p.X, 0, m.group.area.Width),
		Y: geom.Clamp(p.Y, 0, m.group.area.Height),
	}
}

// Position implements Mover.
func (m *Member) Position() geom.Point { return m.PositionAt(m.group.sched.Now()) }

// Speed implements Mover (approximated as center speed plus jitter).
func (m *Member) Speed() float64 {
	return m.group.center.Speed() + m.jitter.Speed()
}
