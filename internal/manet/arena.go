package manet

import (
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Arena retains a Network's bulk allocations — everything whose size
// grows with the population — across Networks, on every engine: the
// hosts, MACs, RNG streams and random-turn movers, the HELLO state
// (neighbor tables included) of HELLO worlds, the dedup bitset, the scheduler's event slab and
// free-list backing, and the channel's per-radio arrays, position
// snapshot, spatial index and reachability marks. There is one host
// builder (buildHosts) and it builds into these whether or not a worker
// pool or shard wheels exist. A parameter sweep constructs thousands of
// same-size worlds back to back; without reuse every construction
// allocates (and the collector then marks and sweeps) on the order of a
// kilobyte per host, which at mega-map populations makes the allocator
// the dominant cost of the whole experiment. Passing one Arena through
// Config.Arena lets each construction reclaim the previous world's
// storage: a warm construction of a same-shape world then allocates
// nothing that grows with the population, and collections stop
// re-marking tens of megabytes of dead host state.
//
// The contract is strict in exchange for that: an Arena may back at
// most one live Network at a time. Once a Config carrying the arena is
// passed to New, the previous Network built from it — and anything
// reached through that Network (positions, neighbor counts, host
// state) — must no longer be touched; its memory now belongs to the
// new world. Results that must outlive the Network (the Summary,
// retained records) are unaffected: they are plain values owned by the
// caller.
//
// An Arena is not safe for concurrent use, so one arena cannot serve
// two Networks built or run at the same time. experiment.RunMatrix runs
// several Networks at once from copies of each Config and therefore
// refuses, with a panic before any worker starts, a Config that
// carries one.
//
// Reinitialization is by full overwrite (every Init*/New*Into
// constructor and RNG fork writes the complete record, the dedup bitset
// and the event slab are cleared, and the channel zeroes the radio slots
// it claims and rebuilds its snapshot before reading it), so a reused
// world is byte-identical to a freshly allocated one — the sharded
// equivalence suite runs its whole matrix through one shared arena to
// pin exactly that. Per-world object pools (the MACs' free records, the
// network's decision-record, set, coverage and frame pools) are not
// parked: each world starts them empty and fills them on a miss, as a
// restored world does.
type Arena struct {
	hostsN     int
	slabMovers bool
	hosts      []*host
	hostSlab   []host
	macSlab    []mac.MAC
	rngSlab    []sim.RNG
	moveSlab   []sim.RNG
	roamerSlab []mobility.Roamer
	events     []sim.Event
	helloSlab  []helloState // HELLO worlds only; survives HELLO-off worlds
	dedup      []uint64     // the largest dedup bitset built so far

	// The last world's channel and scheduler, whose population-sized
	// storage the next world's take over whatever its shape.
	ch    *phy.Channel
	sched *sim.Scheduler
}

// NewArena returns an empty arena. The first construction through it
// allocates and parks its slabs; later same-shape constructions reuse
// them.
func NewArena() *Arena { return &Arena{} }

// fits reports whether the arena's parked slabs match the requested
// world shape. A mismatch (different population, different mover
// layout) silently falls back to fresh allocation — the arena then
// parks the new slabs instead.
func (a *Arena) fits(hostsN int, slabMovers bool) bool {
	return a.hostsN == hostsN && a.slabMovers == slabMovers && a.hostSlab != nil
}
