package mobility

import (
	"testing"

	"repro/internal/sim"
)

func TestGroupMembersStayNearCenter(t *testing.T) {
	sched := sim.NewScheduler()
	area := NewSquareMap(9, 500)
	cfg := DefaultGroupConfig(40)
	rng := sim.NewRNG(1)
	g := NewGroup(sched, area, cfg, rng.Fork(0))
	members := make([]*Member, 8)
	for i := range members {
		members[i] = g.NewMember(rng.Fork(uint64(i + 1)))
	}

	// Over a long roam, every member stays within spread + jitter box of
	// the center (unless clamped at a map border).
	maxDist := cfg.Spread + 2*cfg.Spread // offset + recentered jitter extremes
	for step := 0; step < 2000; step++ {
		sched.RunUntil(sched.Now().Add(2 * sim.Second))
		c := g.center.Position()
		for i, m := range members {
			p := m.Position()
			if !area.Contains(p) {
				t.Fatalf("member %d left the map: %+v", i, p)
			}
			// Skip the cohesion check when the center is near a border
			// (members clamp there).
			if c.X < maxDist || c.Y < maxDist ||
				c.X > area.Width-maxDist || c.Y > area.Height-maxDist {
				continue
			}
			if d := p.Dist(c); d > maxDist+1 {
				t.Fatalf("member %d drifted %vm from center (max %v)", i, d, maxDist)
			}
		}
	}
}

func TestGroupMembersMoveTogether(t *testing.T) {
	sched := sim.NewScheduler()
	area := NewSquareMap(9, 500)
	rng := sim.NewRNG(3)
	g := NewGroup(sched, area, DefaultGroupConfig(60), rng.Fork(0))
	a := g.NewMember(rng.Fork(1))
	b := g.NewMember(rng.Fork(2))

	// Pairwise distance is bounded by group geometry forever, even after
	// the group travels far.
	start := a.Position()
	travelled := false
	for step := 0; step < 4000; step++ {
		sched.RunUntil(sched.Now().Add(2 * sim.Second))
		if d := a.Position().Dist(b.Position()); d > 6*200+2 {
			t.Fatalf("group members separated by %vm", d)
		}
		if a.Position().Dist(start) > 1000 {
			travelled = true
		}
	}
	if !travelled {
		t.Error("group never travelled 1km in >2h at max 60km/h")
	}
}

func TestGroupValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative spread did not panic")
		}
	}()
	cfg := DefaultGroupConfig(40)
	cfg.Spread = -1
	NewGroup(sim.NewScheduler(), NewSquareMap(3, 500), cfg, sim.NewRNG(1))
}
