package manet

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/neighbor"
	"repro/internal/nodeset"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/pdes"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Network is one fully assembled simulation instance. Build it with New,
// run it once with Run or RunContext. A Network is single-use and its
// API is single-threaded; the sharded engine's internal worker pool is
// invisible at this level, and replica parallelism belongs above it (see
// the experiment package).
type Network struct {
	cfg    Config
	sched  *sim.Scheduler
	ch     *phy.Channel
	macs   *mac.Shared // what every host's MAC shares: timing, RTS threshold, auditor
	area   mobility.Map
	hosts  []*host
	engine Engine // resolved engine (never EngineAuto)
	shards int    // resolved shard count, 0 when sequential
	pool   *pdes.Pool

	// Protocol, if set before Run, replaces the Requests workload with an
	// application's own (see Protocol).
	Protocol Protocol

	// Tracer, if set before Run, records the per-broadcast event
	// timeline (originations, deliveries, duplicates, transmissions,
	// inhibit decisions, collision-garbled copies). It is the one
	// per-broadcast observation channel: a host's first copy of a
	// broadcast is its Originate or Deliver event.
	Tracer *obs.Recorder

	// Progress, if set before Run, receives one line per simulated
	// second reporting the clock, executed events, and wall-clock event
	// rate. It is pure output — written from the scheduler's tick hook —
	// so it cannot affect results.
	Progress io.Writer

	// CheckpointEvery and CheckpointHook, if both set before Run, invoke
	// the hook at the first barrier at or past each multiple of
	// CheckpointEvery (never at the final barrier — the run is complete
	// there, so there is nothing left to resume). Barriers sit between
	// events with every pending event strictly in the future, which is
	// the instant Checkpoint serializes. A hook error aborts the run.
	CheckpointEvery sim.Duration
	CheckpointHook  func(now sim.Time) error

	// Telemetry plumbing (cfg.Telemetry): the collector plus the scheme
	// decision counts the hosts bump and its first four gauges read.
	// Every increment is gated on obs != nil: an uninstrumented run pays
	// one pointer test per decision, and a speculative window — whose
	// lanes decide concurrently — only opens when obs is nil.
	obs                            *obs.Collector
	proceedInitial, inhibitInitial int
	proceedDup, inhibitDup         int

	// Invariant auditor plumbing (cfg.Audit): the auditor itself plus the
	// mobility speed bound the neighbor-soundness sweep uses to expand the
	// radio radius for drift since a HELLO was heard. All hot-path access
	// is gated on audit != nil, so an unaudited run pays one pointer test.
	audit      *obs.Auditor
	auditSpeed float64 // fastest possible host speed, m/s

	// Scratch reused by idealHelloDeliver's unit-disk query so it does
	// not allocate per call.
	nbrScratch []int

	// Object pools (single-threaded, so plain slices): open rebroadcast
	// decisions, scratch bitsets for the neighbor-coverage judges,
	// coverage states for the location judges (derived state, so not
	// checkpointed), broadcast frames for the rebroadcast path, and HELLO
	// beacons (a beacon carries its sender's immutable announced set,
	// which receiver tables keep without the frame, so a beacon can be
	// recycled the moment its transmission completes). Decisions pend at
	// a handful of hosts at once, so one network pool holds far fewer
	// records than one free list per host would.
	prPool    []*pendingRebroadcast
	setPool   []*nodeset.Set
	covPool   []*geom.Coverage
	framePool []*packet.Frame
	helloPool []*packet.Frame

	// Per-broadcast bookkeeping: records live in an arena ordered by
	// origination. The broadcast with Seq s sits at recs[s-1-recBase];
	// recOpen counts the references still holding it open (the source's
	// in-flight transmission plus every undecided pendingRebroadcast).
	// When fold is set, foldFront folds the arrival-order prefix of closed
	// records into stream and releases it, so live state is O(active
	// broadcasts) instead of O(all broadcasts ever issued); recBase counts
	// the records released that way.
	recs    []metrics.BroadcastRecord
	recOpen []int32
	recBase uint32
	stream  metrics.Stream
	fold    bool

	// Parallel barrier execution (see parallel.go): parallelOK records
	// that the shard wheels hold exclusively host-local turn timers
	// (slab movers), which is what licenses draining them concurrently;
	// pstats accumulates the per-window accounting exported through obs.
	parallelOK  bool
	pstats      ParallelStats
	drainDurs   []time.Duration
	shardLabels []pprof.LabelSet

	// Speculative-window state (see speculate.go): specOpen is true only
	// while lanes are running, and routes record notes into the per-lane
	// journals and pool traffic into the per-lane pools; specAssigned
	// records the one-time band assignment; specFails/specSkip implement
	// the adaptive backoff after rolled-back windows.
	specOpen     bool
	specAssigned bool
	specFails    uint
	specSkip     int
	specJournals []recJournal
	specFrames   [][]*packet.Frame
	specPRs      [][]*pendingRebroadcast
	specSets     [][]*nodeset.Set
	specCovs     [][]*geom.Coverage
	specExtract  [][]*sim.Event
	specMergeIdx []int // scratch for the journal k-way merge

	// ckDoc is the pooled checkpoint document: Checkpoint and every
	// speculative segment's micro-checkpoint re-snapshot into the same
	// backing arrays (resetCheckpoint truncates, snapshotInto refills), so
	// steady-state snapshots allocate nothing at the document level. The
	// two users never need the same contents: the hook runs at barriers
	// between windows, and a rollback only reads the document its own
	// segment wrote. ckBuf is Checkpoint's reused encode buffer.
	// digestCache memoizes the configuration digest the snapshot stamps
	// into each document.
	ckDoc       snapshot.Checkpoint
	ckBuf       []byte
	digestCache string

	// Workload originations as a pre-sized Runner slab, so checkpointing
	// can enumerate the not-yet-fired requests (a closure could not be
	// re-described). resumed marks a network rebuilt by RestoreNetwork:
	// its RunContext skips workload construction — the restored state
	// already contains the armed originations and HELLO timers.
	originations []originationEvent
	resumed      bool

	// dedup is every host's duplicate test, one bitset row per host
	// (see dedup.go).
	dedup dedup

	helloSent        int
	repairsRequested int
	repairsDelivered int
	seq              uint32
	endTime          sim.Time
	ran              bool
}

// originationEvent is one workload broadcast request, armed as a Runner
// so a checkpoint can enumerate pending requests by descriptor. ev is
// the armed handle; nil once fired.
type originationEvent struct {
	n   *Network
	src int32
	ev  *sim.Event
}

// RunEvent fires the origination.
func (o *originationEvent) RunEvent() {
	o.ev = nil
	o.n.Originate(packet.NodeID(o.src), nil)
}

// New builds a network from cfg (after defaulting); it returns an error
// for inconsistent configurations.
func New(cfg Config) (*Network, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	engine, shards, err := cfg.resolveEngine()
	if err != nil {
		return nil, err // unreachable after Validate; kept for clarity
	}
	sched := sim.NewScheduler()
	n := &Network{
		cfg:    cfg,
		sched:  sched,
		ch:     phy.NewChannel(sched, phy.DSSSTiming(), cfg.Radius),
		area:   mobility.NewSquareMap(cfg.MapUnits, cfg.UnitMeters),
		engine: engine,
		shards: shards,
	}
	// The engine's whole say in construction: a worker pool and shard
	// wheels, or neither. What is built is the same either way.
	if engine.Features().Sharded {
		n.pool = pdes.NewPool(shards)
		n.ch.SetPool(n.pool)
		sched.ConfigureShards(shards, sim.Second)
	}
	// Folding is off when records must survive the run: RetainRecords by
	// request, Repair because a repaired delivery can reopen a broadcast
	// long after its best-effort wave completed.
	n.fold = !cfg.RetainRecords && !cfg.Repair
	n.ch.DisableCollisions = cfg.DisableCollisions
	if cfg.CaptureRatio > 0 {
		n.ch.SetCapture(cfg.CaptureRatio)
	}
	if cfg.LossRate > 0 {
		n.ch.SetLoss(cfg.LossRate, sim.NewRNG(cfg.Seed).Fork(5))
	}
	root := sim.NewRNG(cfg.Seed)
	moveRNG := root.Fork(1)
	macRNG := root.Fork(2)
	hostRNG := root.Fork(3)

	// Declare how fast hosts can move so the channel's spatial index can
	// amortize snapshot rebuilds over a drift budget instead of
	// re-snapshotting every radio at every distinct timestamp.
	// Config.MaxSpeedMPS is the single source of truth for the bound; the
	// auditor's per-tick mover sweep checks every host against the same
	// number.
	maxSpeed := cfg.MaxSpeedMPS()
	n.ch.SetMaxSpeed(maxSpeed)
	n.macs = mac.NewShared(sched, n.ch)
	if cfg.Audit != nil {
		n.audit = cfg.Audit
		n.auditSpeed = maxSpeed
		sched.SetAuditHook(cfg.Audit.AuditEvent)
		n.ch.SetAudit(cfg.Audit)
		// The hosts never read a mac.Pending handle after its frame
		// completed or was cancelled, as the MAC's pooling contract
		// requires.
		n.macs.SetAudit(cfg.Audit)
	}

	n.buildHosts(moveRNG, macRNG, hostRNG)
	if cfg.Telemetry != nil {
		n.observe(cfg.Telemetry)
	}
	return n, nil
}

// buildHosts assembles the host population on every engine: the engine
// decided whether a worker pool and shard wheels exist, and decides
// nothing about what is built. Everything per-host lives in per-kind
// slabs (parked in cfg.Arena when one is attached), filled in three
// phases:
//
//   - A: movers built one object at a time (waypoint, static) are
//     created sequentially in host order. Waypoint movers
//     arm their first event as they are built, and same-instant events
//     fire in sequence-number order, so host order here keeps the event
//     stream a function of the configuration alone.
//   - B: everything per-host that schedules nothing — RNG stream forks
//     (pure reads of the parent state, so fork order is irrelevant),
//     MACs bound to pre-claimed radio slots, neighbor tables, callback
//     binding, the random-turn movers' draws — writes only its own slab
//     slots: it fans out over the pool when there is one and runs
//     inline otherwise.
//   - C: random-turn first turns are armed sequentially in host order,
//     for the same reason as A, whichever worker initialized the mover.
//     With shard wheels they land on the wheel of the band owning the
//     host's initial position; without, on the central ladder.
func (n *Network) buildHosts(moveRNG, macRNG, hostRNG *sim.RNG) {
	cfg := n.cfg
	sched := n.sched
	hostsN := cfg.Hosts
	slabMovers := !cfg.Static && cfg.Mobility != MobilityWaypoint
	n.parallelOK = slabMovers
	var (
		rngSlab    []sim.RNG // [2i] host stream, [2i+1] mac stream
		moveSlab   []sim.RNG
		hostSlab   []host
		macSlab    []mac.MAC
		roamerSlab []mobility.Roamer
	)
	a := cfg.Arena
	if a != nil {
		// The previous world is finished: its channel and scheduler hand
		// their population-sized storage to this world's, whatever its
		// shape.
		n.ch.ReuseStorage(a.ch)
		sched.ReuseStorage(a.sched)
		a.ch, a.sched = n.ch, sched
	}
	if a != nil && a.fits(hostsN, slabMovers) {
		rngSlab, moveSlab = a.rngSlab, a.moveSlab
		hostSlab, macSlab, roamerSlab = a.hostSlab, a.macSlab, a.roamerSlab
		n.hosts = a.hosts
		// Every slab is fully overwritten by its initializer below, and
		// the scheduler refills its free list from the retained event
		// slab.
		sched.ReserveFrom(a.events)
	} else {
		// Pointer-free slabs first: collections triggered while the heap
		// grows through them mark nothing, whereas every slab below is
		// pointer-dense and re-marked by each later cycle. Ordering the
		// allocation burst scan-light-to-scan-heavy keeps construction-time
		// GC marking roughly halved on a mega map.
		rngSlab = make([]sim.RNG, 2*hostsN)
		if slabMovers {
			moveSlab = make([]sim.RNG, hostsN)
		}
		events := sched.Reserve(hostsN)
		n.hosts = make([]*host, hostsN)
		hostSlab = make([]host, hostsN)
		macSlab = make([]mac.MAC, hostsN)
		if slabMovers {
			roamerSlab = make([]mobility.Roamer, hostsN)
		}
		if a != nil {
			tables := a.tableSlab
			if len(tables) != hostsN {
				tables = nil
			}
			*a = Arena{
				hostsN: hostsN, slabMovers: slabMovers,
				hosts: n.hosts, hostSlab: hostSlab, macSlab: macSlab,
				rngSlab: rngSlab, moveSlab: moveSlab, tableSlab: tables,
				roamerSlab: roamerSlab, events: events, dedup: a.dedup,
				ch: a.ch, sched: a.sched,
			}
		}
	}
	// Neighbor tables exist only where HELLO runs. Like the dedup slab
	// below, the arena keeps the table slab apart from the fit test, so a
	// HELLO-off world between two HELLO worlds leaves it parked.
	var tableSlab []neighbor.Table
	if cfg.HelloMode != HelloOff {
		if a != nil && len(a.tableSlab) == hostsN {
			tableSlab = a.tableSlab
		} else {
			tableSlab = make([]neighbor.Table, hostsN)
			if a != nil {
				a.tableSlab = tableSlab
			}
		}
	}
	// The dedup slab depends on the requests as well as the population,
	// so the arena keeps it apart from the fit test: any parked slab
	// large enough is cleared and reused.
	if a != nil {
		n.dedup.reset(hostsN, cfg.Requests, a.dedup)
		a.dedup = n.dedup.bits
	} else {
		n.dedup.reset(hostsN, cfg.Requests, nil)
	}
	// The unit-disk query paths (reachableFrom, idealHelloDeliver)
	// identify hosts by radio index: host i must be radio i.
	base := n.ch.AttachBatch(hostsN)
	if base != 0 {
		panic(fmt.Sprintf("manet: host batch attached at radio base %d", base))
	}

	movers := mobility.NewShared(sched, n.area, mobility.DefaultConfig(cfg.MaxSpeedKMH))
	if !slabMovers {
		for i := range hostSlab {
			h := &hostSlab[i]
			switch {
			case len(cfg.Placement) > 0 && cfg.Static:
				h.mover = mobility.NewStaticRoamer(movers, cfg.Placement[i])
			case cfg.Static:
				h.mover = mobility.NewStaticRoamer(movers, randomPoint(moveRNG.Fork(uint64(i)), n.area))
			default: // MobilityWaypoint
				h.mover = mobility.NewWaypoint(sched, n.area, mobility.DefaultWaypointConfig(cfg.MaxSpeedKMH), moveRNG.Fork(uint64(i)))
			}
		}
	}

	initHosts := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			h := &hostSlab[i]
			hostRNG.ForkInto(&rngSlab[2*i], uint64(i))
			// Full overwrite: under arena reuse the slot still holds the
			// previous world's host, and every unlisted field must drop
			// back to its zero value. The mover survives from phase A
			// (and is replaced just below when slab movers are in play).
			*h = host{
				id:    packet.NodeID(i),
				net:   n,
				mover: h.mover,
				rng:   &rngSlab[2*i],
				lane:  -1,
			}
			if slabMovers {
				moveRNG.ForkInto(&moveSlab[i], uint64(i))
				r := &roamerSlab[i]
				mobility.InitRoamer(r, movers, &moveSlab[i])
				if n.shards > 0 {
					r.SetShard(n.shardOfY(r.PositionAt(0).Y))
				}
				h.mover = r
			}
			macRNG.ForkInto(&rngSlab[2*i+1], uint64(i))
			mac.NewInto(&macSlab[i], n.macs, h.mover, &rngSlab[2*i+1], base+i)
			h.mac = &macSlab[i]
			if tableSlab != nil {
				neighbor.InitTable(&tableSlab[i], h.id, sched, cfg.ExpiryIntervals, hostsN)
				h.table = &tableSlab[i]
			}
			h.mac.SetAddr(h.id)
			h.mac.Receiver = h
			h.mac.GarbledReceiver = h
			n.hosts[i] = h
		}
	}
	if n.pool != nil {
		n.pool.Do(hostsN, initHosts)
	} else {
		initHosts(0, 0, hostsN)
	}

	if slabMovers {
		for i := range roamerSlab {
			roamerSlab[i].Start()
		}
	}
}

// shardOfY maps a map Y coordinate onto a shard; it is meaningful only
// with shard wheels (n.shards > 0). Shards are horizontal map bands of
// equal height, a power-of-two partition of Y. A roamer keeps its
// initial band's wheel for life: the assignment only decides which
// wheel stores its turn events, never their (time, seq) firing order,
// so migrating wheels on border crossings would buy nothing.
func (n *Network) shardOfY(y float64) int {
	s := int(y / n.area.Height * float64(n.shards))
	if s < 0 {
		s = 0
	}
	if s >= n.shards {
		s = n.shards - 1
	}
	return s
}

// observe registers the network-level telemetry series. Every series is
// a pure read of already-maintained state, evaluated only when the tick
// hook samples; the four scheme.* series read the decision counts
// host.go bumps, and come first in the JSONL column order.
func (n *Network) observe(o *obs.Collector) {
	n.obs = o
	o.Gauge("scheme.proceed_initial", func() float64 { return float64(n.proceedInitial) })
	o.Gauge("scheme.inhibit_initial", func() float64 { return float64(n.inhibitInitial) })
	o.Gauge("scheme.proceed_duplicate", func() float64 { return float64(n.proceedDup) })
	o.Gauge("scheme.inhibit_duplicate", func() float64 { return float64(n.inhibitDup) })
	o.Gauge("sim.pending_events", func() float64 { return float64(n.sched.Pending()) })
	o.Gauge("sim.event_pool_hit_rate", func() float64 { return n.sched.PoolHitRate() })
	o.Gauge("mac.backoff_stalls", func() float64 { return float64(n.MACStats().Stalls) })
	o.Gauge("manet.hello_sent", func() float64 { return float64(n.helloSent) })
	o.Gauge("manet.broadcasts", func() float64 { return float64(n.seq) })
	if n.shards > 0 {
		// Barrier-execution series (see parallel.go): per-shard drained
		// event counts expose load imbalance, and border_share is the
		// fraction of events the sequential border lane executed (1.0
		// when the parallel path is ineligible). Worker idle time at the
		// barriers is wall-clock, so it stays in ParallelStats.WaitNS and
		// out of the series, which two runs of one seed must repeat.
		o.Gauge("engine.barriers", func() float64 { return float64(n.pstats.Barriers) })
		o.Gauge("engine.border_share", func() float64 {
			exec := n.sched.Executed()
			if exec == 0 {
				return 0
			}
			var shard uint64
			for _, c := range n.pstats.ShardExecuted {
				shard += c
			}
			return float64(exec-shard) / float64(exec)
		})
		for s := 0; s < n.shards; s++ {
			s := s
			o.Gauge(fmt.Sprintf("engine.shard%d_executed", s), func() float64 {
				if s < len(n.pstats.ShardExecuted) {
					return float64(n.pstats.ShardExecuted[s])
				}
				return 0
			})
		}
	}
	n.ch.Observe(o)
}

// acquireSet borrows a scratch bitset for a coverage judge; contents are
// unspecified (judges overwrite via CopyFrom). While a speculative
// window is open the acting host's lane pool serves the request, so no
// two lanes touch the shared pool concurrently.
func (n *Network) acquireSet(lane int32) *nodeset.Set {
	pool := &n.setPool
	if n.specOpen && lane >= 0 {
		pool = &n.specSets[lane]
	}
	if s, ok := pop(pool); ok {
		return s
	}
	return nodeset.New(len(n.hosts))
}

// releaseSet returns a judge's scratch bitset to the pool.
func (n *Network) releaseSet(s *nodeset.Set, lane int32) {
	if n.specOpen && lane >= 0 {
		n.specSets[lane] = append(n.specSets[lane], s)
		return
	}
	n.setPool = append(n.setPool, s)
}

// acquireCoverage borrows a coverage state for a location judge, which
// Resets it; lane routing as in acquireSet.
func (n *Network) acquireCoverage(lane int32) *geom.Coverage {
	pool := &n.covPool
	if n.specOpen && lane >= 0 {
		pool = &n.specCovs[lane]
	}
	if c, ok := pop(pool); ok {
		return c
	}
	return new(geom.Coverage)
}

// releaseCoverage returns a location judge's coverage state to the pool.
func (n *Network) releaseCoverage(c *geom.Coverage, lane int32) {
	if n.specOpen && lane >= 0 {
		n.specCovs[lane] = append(n.specCovs[lane], c)
		return
	}
	n.covPool = append(n.covPool, c)
}

// pop takes the most recently returned object off pool and clears its
// slot, so the pool keeps no reference to what it handed out.
func pop[T any](pool *[]T) (T, bool) {
	var zero T
	k := len(*pool)
	if k == 0 {
		return zero, false
	}
	v := (*pool)[k-1]
	(*pool)[k-1] = zero
	*pool = (*pool)[:k-1]
	return v, true
}

// newBroadcastFrame builds (or recycles) a broadcast data frame carrying
// payload (nil outside a Protocol's broadcasts). Lane routing as in
// acquireSet: a speculative lane recycles through its own pool and
// allocates fresh on a miss rather than touching the shared pool. Pool depths may therefore exceed the oracle's — pools are pure
// caches, and frames are fully overwritten on reuse, so nothing
// observable depends on them.
func (n *Network) newBroadcastFrame(bid packet.BroadcastID, payload any, sender packet.NodeID, pos geom.Point, lane int32) *packet.Frame {
	pool := &n.framePool
	if n.specOpen && lane >= 0 {
		pool = &n.specFrames[lane]
	}
	f, ok := pop(pool)
	if ok {
		*f = packet.Frame{
			Kind:      packet.KindBroadcast,
			Sender:    sender,
			Dest:      packet.DestBroadcast,
			Bytes:     packet.BroadcastBytes,
			Payload:   payload,
			Broadcast: bid,
			SenderPos: pos,
		}
	} else {
		f = packet.NewBroadcast(bid, sender, pos)
		f.Payload = payload
	}
	if n.audit != nil {
		n.audit.AuditAcquire(n.sched.Now(), "frame", f)
	}
	return f
}

// recycleFrame returns a broadcast frame whose transmission is finished
// (or was cancelled before starting) to the pool. Safe because broadcast
// frames are consumed synchronously at delivery: no receiver, MAC queue
// entry, or channel record dereferences the frame after its completion
// callback has run.
func (n *Network) recycleFrame(f *packet.Frame, lane int32) {
	if n.specOpen && lane >= 0 {
		n.specFrames[lane] = append(n.specFrames[lane], f)
		return
	}
	if n.audit != nil {
		n.audit.AuditRelease(n.sched.Now(), "frame", f)
	}
	n.framePool = append(n.framePool, f)
}

// newHelloFrame builds (or recycles) a HELLO beacon with no Neighbors
// and an empty Recent slice whose capacity survives recycling; the
// caller sets the announced sets and accounts Bytes. Neighbors is never
// reused: it is the sender's announced set, which receivers keep.
func (n *Network) newHelloFrame(sender packet.NodeID, pos geom.Point, interval sim.Duration) *packet.Frame {
	f, ok := pop(&n.helloPool)
	if !ok {
		f = new(packet.Frame)
	}
	recent := f.Recent[:0]
	*f = packet.Frame{
		Kind:          packet.KindHello,
		Sender:        sender,
		Dest:          packet.DestBroadcast,
		Bytes:         packet.HelloBaseBytes,
		SenderPos:     pos,
		HelloInterval: interval,
		Recent:        recent,
	}
	if n.audit != nil {
		n.audit.AuditAcquire(n.sched.Now(), "frame", f)
	}
	return f
}

// recycleHelloFrame returns a fully transmitted beacon to the pool.
// Safe because receivers keep Neighbors, which the frame's next use
// replaces rather than overwrites, and consume Recent (onHelloRecent)
// synchronously at delivery, before the sender's completion callback
// runs.
func (n *Network) recycleHelloFrame(f *packet.Frame) {
	if n.audit != nil {
		n.audit.AuditRelease(n.sched.Now(), "frame", f)
	}
	n.helloPool = append(n.helloPool, f)
}

// randomPoint places a static host uniformly on the map.
func randomPoint(rng *sim.RNG, area mobility.Map) geom.Point {
	return geom.Point{
		X: rng.UniformFloat(0, area.Width),
		Y: rng.UniformFloat(0, area.Height),
	}
}

// Scheduler exposes the simulation clock (examples and tests).
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Config returns the effective (defaulted) configuration.
func (n *Network) Config() Config { return n.cfg }

// Engine returns the resolved engine the network was built with (never
// EngineAuto).
func (n *Network) Engine() Engine { return n.engine }

// ShardCount returns the resolved shard count; 0 for the sequential
// engines.
func (n *Network) ShardCount() int { return n.shards }

// Close releases the sharded engine's worker pool (no-op for sequential
// engines; idempotent). RunContext closes on return, so an explicit
// Close is only needed for a Network that was built but never run.
// After Close, pool-backed queries degrade to inline execution, so a
// closed Network's inspection methods keep working.
func (n *Network) Close() {
	if n.pool != nil {
		n.pool.Close()
	}
}

// Run executes the configured workload and returns the run summary. It
// panics if called twice.
func (n *Network) Run() metrics.Summary {
	s, err := n.RunContext(context.Background())
	if err != nil {
		// Unreachable without a CheckpointHook: Background is never
		// cancelled and RunContext has no other error path.
		panic("manet: " + err.Error())
	}
	return s
}

// RunContext executes the configured workload, checking ctx between
// conservative barrier windows (see barrierWindow), and returns the run
// summary. On cancellation it stops at the next barrier — never inside
// an event — releases the worker pool, and returns ctx's error with a
// zero summary. The Network is spent either way; it panics if run
// twice.
func (n *Network) RunContext(ctx context.Context) (metrics.Summary, error) {
	if n.ran {
		panic("manet: Network.Run called twice")
	}
	n.ran = true
	defer n.Close()

	// Every cause checkpointable names is fixed before Run, so a hook
	// that could never write is refused before the first event instead
	// of at the first cadence.
	if n.CheckpointHook != nil {
		if err := n.checkpointable(); err != nil {
			return metrics.Summary{}, err
		}
	}

	if !n.resumed {
		var last sim.Time
		if n.Protocol != nil {
			last = n.Protocol.Start()
		} else {
			last = n.scheduleRequests()
		}
		n.endTime = last.Add(n.cfg.Drain)
		for _, h := range n.hosts {
			h.scheduleHello()
		}
	}

	// Telemetry sampling and progress reporting ride the scheduler's
	// tick hook: they run between events, schedule nothing, and draw no
	// random numbers, so the event stream is identical to an unhooked
	// run (TestTelemetryDoesNotPerturbSimulation asserts this).
	if n.obs != nil || n.Progress != nil || n.audit != nil {
		interval := n.obs.Tick()
		if interval <= 0 {
			interval = sim.Second
		}
		startWall := time.Now()
		nextProgress := sim.Time(0).Add(sim.Second)
		n.sched.SetTickHook(interval, func() {
			now := n.sched.Now()
			n.obs.Sample(now)
			if n.audit != nil {
				n.auditNeighborSweep(now)
			}
			if n.Progress != nil && now >= nextProgress {
				rate := 0.0
				if elapsed := time.Since(startWall).Seconds(); elapsed > 0 {
					rate = float64(n.sched.Executed()) / elapsed
				}
				fmt.Fprintf(n.Progress, "sim t=%.1fs/%.1fs  events=%d (%.0f/s)\n",
					now.Seconds(), n.endTime.Seconds(), n.sched.Executed(), rate)
				nextProgress = now.Add(sim.Second)
			}
		})
	}

	// Advance the clock one conservative window at a time. Each window is
	// a barrier: the merged event order inside is identical to one
	// uninterrupted run (the deadline only clamps the clock, never
	// reorders events), and between barriers the engine checks
	// cancellation and feeds the cross-shard time invariants to the
	// auditor. When the sharded engine is eligible (see parallel.go),
	// each window first drains the shard wheels concurrently (phase A)
	// and then runs the remaining merged stream — the deterministic
	// border lane — sequentially up to the barrier (phase B).
	par := n.parallelEligible()
	spec := n.speculativeEligible()
	window := n.barrierWindow()
	if par {
		// A drain fires at most one turn per mover per window: the
		// invariant the one-segment mobility history relies on.
		window = min(window, mobility.DefaultConfig(n.cfg.MaxSpeedKMH).MinTurn)
	}
	nextCkpt := n.sched.Now().Add(n.CheckpointEvery)
	for {
		if err := ctx.Err(); err != nil {
			return metrics.Summary{}, err
		}
		barrier := n.sched.Now().Add(window)
		if barrier > n.endTime {
			barrier = n.endTime
		}
		if par {
			n.drainWindow(barrier)
		}
		if spec {
			n.runSpecWindow(barrier)
		} else {
			n.sched.RunUntil(barrier)
		}
		n.auditShardBarrier(barrier)
		if n.shards > 0 {
			n.pstats.Barriers++
		}
		if n.CheckpointHook != nil && n.CheckpointEvery > 0 &&
			barrier < n.endTime && barrier >= nextCkpt {
			if err := n.CheckpointHook(n.sched.Now()); err != nil {
				return metrics.Summary{}, err
			}
			nextCkpt = barrier.Add(n.CheckpointEvery)
		}
		if barrier >= n.endTime {
			break
		}
	}
	n.obs.Sample(n.sched.Now()) // close the series at end of run (nil-safe)
	return n.summarize(), nil
}

// scheduleRequests arms the Requests workload and returns the time of
// its last origination (Warmup when there is none).
func (n *Network) scheduleRequests() sim.Time {
	workload := sim.NewRNG(n.cfg.Seed).Fork(4)
	at := sim.Time(0).Add(n.cfg.Warmup)
	n.originations = make([]originationEvent, n.cfg.Requests)
	for i := range n.originations {
		at = at.Add(workload.UniformDuration(0, n.cfg.ArrivalSpread))
		o := &n.originations[i]
		o.n = n
		o.src = int32(workload.IntN(len(n.hosts)))
		o.ev = n.sched.ScheduleRunner(at, o)
	}
	return at
}

// barrierWindow derives the conservative lookahead between cancellation
// and audit barriers: the minimum frame airtime (no radio interaction
// resolves faster, so windows are never finer than the simulation can
// observe) plus the time the fastest host needs to cross a quarter
// radius — the same drift budget the spatial index amortizes snapshots
// over — capped at one second so static worlds still reach barriers
// regularly.
func (n *Network) barrierWindow() sim.Duration {
	w := n.ch.Timing().Airtime(packet.AckBytes)
	slack := sim.Second
	if v := n.cfg.MaxSpeedMPS(); v > 0 {
		if d := sim.Duration(0.25 * n.cfg.Radius / v * float64(sim.Second)); d < slack {
			slack = d
		}
	}
	return w + slack
}

// auditShardBarrier feeds the cross-shard time invariants to the
// auditor at a barrier: barrier times advance monotonically, the merged
// clock never passes the barrier it just ran to, and no shard wheel
// still holds an event that was already due (a lagging head would mean
// the merged pop skipped it).
func (n *Network) auditShardBarrier(barrier sim.Time) {
	if n.audit == nil || n.shards == 0 {
		return
	}
	now := n.sched.Now()
	n.audit.AuditShardBarrier(now, barrier)
	for s := 0; s < n.shards; s++ {
		if head, ok := n.sched.ShardHead(s); ok {
			n.audit.AuditShardHead(now, s, head)
		}
	}
}

// auditNeighborSweep verifies every host's neighbor table against ground
// truth: each entry must be within its staleness bound (expiryIntervals
// hello intervals since last heard) and its host must lie within the
// radio radius expanded by the worst-case drift both endpoints can
// accumulate since the HELLO's transmission began (its age plus the
// beacon's maximum airtime, at auditSpeed each). It also checks every
// mover against the configured speed bound — the same auditSpeed the
// spatial index sizes its drift budget from, so a mobility model
// exceeding Config.MaxSpeedMPS is flagged before it can silently
// invalidate index snapshots. Pure observation: reads positions, speeds,
// and table entries, mutates nothing.
func (n *Network) auditNeighborSweep(now sim.Time) {
	// In-range membership is fixed when a transmission starts, and the
	// entry timestamp is stamped at delivery — one maximal HELLO airtime
	// later — so the drift window extends backwards by that airtime.
	maxHello := packet.HelloBaseBytes +
		packet.HelloPerNeighborBytes*len(n.hosts) +
		packet.HelloPerRecentBytes*(n.cfg.Requests+1)
	slack := n.ch.Timing().Airtime(maxHello)
	const eps = 1e-6
	for _, h := range n.hosts {
		owner := h
		pos := owner.mover.Position()
		n.audit.AuditMoverSpeed(now, owner.id, owner.mover.Speed(), n.auditSpeed)
		if owner.table == nil {
			continue
		}
		owner.table.AuditEntries(func(id packet.NodeID, lastHeard sim.Time, interval sim.Duration) {
			age := now.Sub(lastHeard)
			bound := sim.Duration(n.cfg.ExpiryIntervals) * interval
			dist := pos.Dist(n.hosts[id].mover.Position())
			maxDist := n.cfg.Radius + 2*n.auditSpeed*(age+slack).Seconds() + eps
			n.audit.AuditNeighborEntry(now, owner.id, id, age, bound, dist, maxDist)
		})
	}
}

// Originate issues one broadcast from host src carrying payload and
// returns its id. The source always transmits; every other host decides
// through the scheme.
func (n *Network) Originate(srcID packet.NodeID, payload any) packet.BroadcastID {
	src := n.hosts[srcID]
	n.seq++
	bid := packet.BroadcastID{Source: src.id, Seq: n.seq}
	n.dedup.originate(src.id, n.seq)
	n.recs = append(n.recs, metrics.MakeBroadcastRecord(bid, n.sched.Now(), n.reachableFrom(src)))
	n.recs[len(n.recs)-1].Received = 1 // the source holds the packet
	// Open until the source's own transmission completes; every
	// pendingRebroadcast the wave spawns adds its own hold.
	n.recOpen = append(n.recOpen, 1)
	n.trace(obs.Originate, bid, src.id)
	src.originate(bid, payload)
	return bid
}

// reachableFrom computes e: the number of hosts (including src) in src's
// connected component of the current unit-disk graph. The channel's
// walker expands through the spatial index, so each visited host costs
// its degree rather than a scan of the whole population.
func (n *Network) reachableFrom(src *host) int {
	return n.ch.CountReachable(src.mac.Radio())
}

// record fetches the bookkeeping entry for a broadcast; unknown ids and
// already-folded records (possible only through misuse or an open-count
// bug) panic loudly rather than silently skewing metrics.
func (n *Network) record(bid packet.BroadcastID) *metrics.BroadcastRecord {
	// Seq is the global origination counter (starting at 1), so the
	// arena index is direct. A folded broadcast wraps the unsigned
	// subtraction to a huge index and fails the bounds check.
	idx := int(bid.Seq - 1 - n.recBase)
	if idx < 0 || idx >= len(n.recs) || n.recs[idx].ID != bid {
		panic(fmt.Sprintf("manet: no record for %v", bid))
	}
	return &n.recs[idx]
}

// openInc adds one hold on a broadcast's record: the record cannot fold
// while any transmission or rebroadcast decision that can still mutate
// it is outstanding. h is the acting host: while a speculative window is
// open the op is journaled on its lane instead of mutating the shared
// arena.
func (n *Network) openInc(bid packet.BroadcastID, h *host) {
	if n.specOpen && h.lane >= 0 {
		n.specNote(h.lane, recOpOpenInc, bid)
		return
	}
	n.recOpen[bid.Seq-1-n.recBase]++
}

// openDec drops one hold; when the arrival-order prefix of the arena is
// fully closed it is folded into the streaming aggregates and released.
// Call after the final record mutations of the closing event.
func (n *Network) openDec(bid packet.BroadcastID, h *host) {
	if n.specOpen && h.lane >= 0 {
		n.specNote(h.lane, recOpOpenDec, bid)
		return
	}
	idx := bid.Seq - 1 - n.recBase
	n.recOpen[idx]--
	if n.recOpen[idx] < 0 {
		panic(fmt.Sprintf("manet: open count for %v went negative", bid))
	}
	if n.fold && idx == 0 {
		n.foldFront()
	}
}

// foldFront folds every leading closed record into the run aggregates
// and releases it from the arena. Records must fold in arrival order —
// that is what makes the streamed summary byte-identical to folding the
// retained set after the run — so the frontier stops at the first record
// still held open.
func (n *Network) foldFront() {
	now := n.sched.Now()
	for len(n.recOpen) > 0 && n.recOpen[0] == 0 {
		rec := &n.recs[0]
		n.stream.Fold(rec)
		if n.audit != nil {
			n.audit.AuditRecord(now, rec)
		}
		n.recs = n.recs[1:]
		n.recOpen = n.recOpen[1:]
		n.recBase++
	}
}

func (n *Network) noteReceived(bid packet.BroadcastID, h *host) {
	// Speculative eligibility requires a nil Tracer, so the journaled
	// op only has to replay the record mutations.
	if n.specOpen && h.lane >= 0 {
		n.specNote(h.lane, recOpReceived, bid)
		return
	}
	rec := n.record(bid)
	rec.Received++
	rec.NoteActivity(n.sched.Now())
	n.trace(obs.Deliver, bid, h.id)
}

// trace records an event if a Tracer is attached.
func (n *Network) trace(kind obs.Kind, bid packet.BroadcastID, h packet.NodeID) {
	if n.Tracer != nil {
		n.Tracer.Record(n.sched.Now(), kind, bid, h)
	}
}

func (n *Network) noteTransmitted(bid packet.BroadcastID, h *host) {
	if n.specOpen && h.lane >= 0 {
		n.specNote(h.lane, recOpTransmitted, bid)
		return
	}
	n.record(bid).Transmitted++
}

func (n *Network) noteActivity(bid packet.BroadcastID, h *host) {
	if n.specOpen && h.lane >= 0 {
		n.specNote(h.lane, recOpActivity, bid)
		return
	}
	n.record(bid).NoteActivity(n.sched.Now())
}

// summarize folds per-broadcast records and channel counters into the
// run summary.
func (n *Network) summarize() metrics.Summary {
	now := n.sched.Now()
	// Fold the stragglers: a record still held open when the clock runs
	// out is final now. They stay in the arena (not released), so
	// Records() keeps working under RetainRecords.
	for i := range n.recs {
		rec := &n.recs[i]
		n.stream.Fold(rec)
		if n.audit != nil {
			n.audit.AuditRecord(now, rec)
		}
	}
	s := n.stream.Summary()
	st := n.ch.Stats()
	s.HelloSent = n.helloSent
	s.RepairsRequested = n.repairsRequested
	s.RepairsDelivered = n.repairsDelivered
	s.Transmissions = st.Transmissions
	s.Deliveries = st.Deliveries
	s.Collisions = st.Collisions
	s.SimulatedTime = now.Sub(0)
	s.Events = n.sched.Executed()
	if n.audit != nil {
		n.audit.AuditSummary(now, s, st.Lost)
	}
	return s
}

// Records returns the per-broadcast records in arrival order (available
// after Run; used by tests and detailed analyses). By default completed
// records are folded into the run aggregates and released mid-run, so
// callers that need the full set must set Config.RetainRecords.
func (n *Network) Records() []*metrics.BroadcastRecord {
	if len(n.recs) != int(n.seq) {
		panic("manet: records were folded and released mid-run; set Config.RetainRecords to keep them")
	}
	recs := make([]*metrics.BroadcastRecord, len(n.recs))
	for i := range n.recs {
		recs[i] = &n.recs[i]
	}
	return recs
}

// Positions returns every host's current position (visualization,
// topology inspection).
func (n *Network) Positions() []geom.Point {
	out := make([]geom.Point, len(n.hosts))
	for i, h := range n.hosts {
		out[i] = h.mover.Position()
	}
	return out
}

// Area returns the map dimensions in meters.
func (n *Network) Area() (width, height float64) {
	return n.area.Width, n.area.Height
}

// idealHelloDeliver implements the IdealHello ablation: src's beacon is
// applied directly to every in-range host's neighbor table, bypassing
// the channel entirely.
func (n *Network) idealHelloDeliver(src *host, interval sim.Duration) {
	n.helloSent++
	neighbors := src.table.Announce()
	n.nbrScratch = n.ch.Neighbors(src.mac.Radio(), n.nbrScratch[:0])
	for _, j := range n.nbrScratch {
		n.hosts[j].table.OnHello(src.id, neighbors, interval)
	}
}
