// Package phy models the shared radio medium: a unit-disk channel in
// which every host within the transmission radius of a sender hears its
// frame, carrier sensing reports the medium busy to every host inside
// any active sender's range, and two transmissions that overlap in time
// at a receiver garble each other there (no capture effect, no collision
// detection) — exactly the conditions the paper's collision analysis
// assumes for broadcast frames.
package phy

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/nodeset"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/pdes"
	"repro/internal/sim"
)

// Listener receives channel callbacks for one radio. Implemented by the
// MAC layer.
type Listener interface {
	// CarrierBusy signals the medium transitioned idle -> busy at this
	// radio (some in-range transmission started, possibly its own).
	CarrierBusy()
	// CarrierIdle signals the medium transitioned busy -> idle.
	CarrierIdle()
	// Deliver hands up a frame that was received intact (in range for
	// the whole airtime and free of overlapping transmissions).
	Deliver(f *packet.Frame)
	// DeliverGarbled reports that a frame addressed into this radio's
	// range was destroyed by a collision. MACs typically ignore it; the
	// metrics layer counts it.
	DeliverGarbled(f *packet.Frame)
}

// Positioner reports a radio's position at a simulated time. Movers
// (mobility.Mover implementations) satisfy it directly, so attaching a
// radio stores the mover itself — no per-radio method-value closure.
// It must be pure in t: concurrent readers (the pooled snapshot fill)
// evaluate positions with no synchronization.
type Positioner interface {
	PositionAt(t sim.Time) geom.Point
}

// PositionFunc adapts a bare position function to Positioner.
type PositionFunc func(t sim.Time) geom.Point

// PositionAt implements Positioner.
func (f PositionFunc) PositionAt(t sim.Time) geom.Point { return f(t) }

// TxEnder is notified when a transmission's airtime ends. The MAC hands
// the channel a pointer to a handler embedded in its own struct, so
// starting a transmission allocates no completion closure.
type TxEnder interface {
	TxEnded()
}

// Timing describes the physical layer bit timing. The zero value is not
// usable; use DSSSTiming for the paper's parameters.
type Timing struct {
	BitRateMbps  float64      // payload transmission rate
	PLCPPreamble sim.Duration // physical preamble airtime
	PLCPHeader   sim.Duration // physical header airtime
	SlotTime     sim.Duration // MAC slot (exposed here for convenience)
	SIFS         sim.Duration
	DIFS         sim.Duration
	CWMin        int // minimum contention window (slots)
	CWMax        int // maximum contention window (slots)
}

// DSSSTiming returns the IEEE 802.11 DSSS timing used throughout the
// paper's simulations: 1 Mbps, slot 20 us, SIFS 10 us, DIFS 50 us,
// PLCP preamble 144 us, PLCP header 48 us, backoff window 31-1023.
func DSSSTiming() Timing {
	return Timing{
		BitRateMbps:  1.0,
		PLCPPreamble: 144 * sim.Microsecond,
		PLCPHeader:   48 * sim.Microsecond,
		SlotTime:     20 * sim.Microsecond,
		SIFS:         10 * sim.Microsecond,
		DIFS:         50 * sim.Microsecond,
		CWMin:        31,
		CWMax:        1023,
	}
}

// Airtime returns the full transmission duration of a frame of the given
// payload size: PLCP preamble + PLCP header + payload bits at the bit
// rate. With the paper's parameters a 280-byte broadcast takes 2432 us.
func (t Timing) Airtime(bytes int) sim.Duration {
	bits := float64(bytes * 8)
	payload := sim.Duration(bits / t.BitRateMbps) // 1 Mbps -> 1 us per bit
	return t.PLCPPreamble + t.PLCPHeader + payload
}

// Stats aggregates channel-level counters across a run.
type Stats struct {
	Transmissions int // frames put on the air
	Deliveries    int // intact frame receptions
	Collisions    int // garbled frame receptions
	Lost          int // receptions dropped by the random loss model
}

// transmission is one frame in flight.
type transmission struct {
	frame     *packet.Frame
	sender    int        // radio index
	senderPos geom.Point // sender position at transmission start
	end       sim.Time
	receivers []int // radio indices in range at start (excluding sender)
	// The receiver set and the destroyed-copy set as word-parallel
	// bitsets, so overlap resolves by intersecting backing words.
	recvSet    *nodeset.Set // receiver bitset (mirror of receivers)
	garbledSet *nodeset.Set // receivers whose copy was destroyed
	// onDone is the caller's completion handler for this flight. The
	// record is its own end-of-airtime sim.Runner (RunEvent calls
	// ch.finish), so scheduling the finish allocates no closure and the
	// armed event is classifiable by sender — which is how speculative
	// windows route an in-flight transmission's end to its band's lane.
	// endEvent is the armed end-of-airtime event, kept so a checkpoint
	// can record its exact (at, seq) key.
	onDone   TxEnder
	ch       *Channel
	endEvent *sim.Event
	// lane is the speculative lane currently owning this flight, -1
	// outside speculative windows.
	lane int32
}

// RunEvent implements sim.Runner: the end-of-airtime callback.
func (tx *transmission) RunEvent() { tx.ch.finish(tx.ch.laneOf(tx), tx) }

// TransmissionSender reports the sending radio of an armed end-of-airtime
// event's runner. The speculative classifier uses it to route extracted
// events it does not otherwise recognize.
func TransmissionSender(r sim.Runner) (int, bool) {
	tx, ok := r.(*transmission)
	if !ok {
		return 0, false
	}
	return tx.sender, true
}

// garble marks receiver i's copy destroyed.
func (tx *transmission) garble(i int) { tx.garbledSet.Add(packet.NodeID(i)) }

// isGarbled reports whether receiver i's copy was destroyed.
func (tx *transmission) isGarbled(i int) bool { return tx.garbledSet.Contains(packet.NodeID(i)) }

// Channel is the shared medium. It is owned by a single Scheduler and is
// not safe for concurrent use.
type Channel struct {
	// DisableCollisions, when set before any transmission, delivers
	// every in-range copy intact even under temporal overlap. It exists
	// for ablation studies that isolate how much of the broadcast storm
	// damage is due to collisions (carrier sensing still operates).
	DisableCollisions bool

	// Random per-reception loss (fading/shadowing failure injection),
	// configured with SetLoss. Zero rate means the pure unit-disk model.
	lossRate float64
	lossRNG  *sim.RNG

	// captureRatio, when positive, enables the capture effect: of two
	// overlapping frames at a receiver, the one whose sender is at least
	// sqrt(captureRatio) times closer survives (a free-space power ratio
	// of captureRatio). Zero keeps the paper's model: any overlap
	// destroys both copies.
	captureRatio float64

	sched  *sim.Scheduler
	timing Timing
	radius float64

	// The channel's own flight state; inside a speculative window each
	// lane's flights live in its own (specLanes).
	chLane

	positions []Positioner
	listeners []Listener
	// busyCount[i] is the number of active transmissions whose range
	// covers radio i (including radio i's own transmission); it never
	// exceeds the radio count.
	busyCount []int32
	// transmitting[i] reports whether radio i is currently sending.
	transmitting []bool

	// Spatial index over a position snapshot. Positions are pure
	// functions of simulated time, so a snapshot taken at one clock
	// value serves every query at that instant exactly; the declared
	// speed bound (SetMaxSpeed; negative until then) lets it serve later
	// instants as a candidate prefilter, with the query radius inflated
	// by the maximum distance any radio can have drifted since the
	// snapshot and every candidate re-checked against its live position.
	// A bound of zero keeps the snapshot exact at every later instant.
	grid       geom.Grid
	snapTime   sim.Time
	gridOK     bool
	snap       []geom.Point
	speedBound float64

	// Static-neighbour memo. While the radios are declared motionless
	// (SetMaxSpeed(0)) radio i's ascending neighbour list is a pure
	// function of the snapshot, so it is computed by the first query that
	// wants it and served to every later Transmit, Neighbors and
	// reachability walk of the same snapshot. nbrMemo is non-nil exactly
	// when the current snapshot is of a motionless world (rebuildSnapshot
	// maintains that, and drops every list); nbrMemo[i] is nil until
	// radio i's list is computed. Lists live as int32 in fixed-size
	// chunks that are filled once and never re-grown, so the memo costs
	// 4 bytes per edge and no list is ever copied to a larger array.
	// Only the scheduler's sequential context reads or writes it
	// (exactNeighbors). Derived state: not part of a checkpoint.
	nbrMemo     [][]int32
	nbrChunk    []int32
	nbrMemoHit  uint64
	nbrMemoMiss uint64

	// Speculative-window state: while specBands > 0 the active list is
	// partitioned into one chLane per horizontal map band and every
	// transmission runs entirely inside its band (guarded at TransmitLane;
	// a violation flags the lane's window for rollback). specHeight is
	// the map height the band mapping divides.
	specBands  int
	specHeight float64
	specLanes  []chLane

	// ovl is scratch the capture rule's receiver intersection reuses, so
	// the hot path does not allocate.
	ovl []packet.NodeID

	// audit, when non-nil, receives conservation and pool-lifecycle
	// observations (SetAudit).
	audit *obs.Auditor

	// Worker pool (nil on the sequential engine): parallelizes snapshot
	// position evaluation across index ranges. Positions are pure
	// functions of mover state, so results are identical with or without
	// the pool.
	pool    *pdes.Pool
	walker  *pdes.Walker
	walkNbr pdes.NeighborFunc // the walker's adjacency query, bound with it

	// Channel-load accounting for the telemetry subsystem, gated on
	// obsBusy so uninstrumented runs pay a single branch per carrier
	// transition. busyRadios counts radios currently sensing carrier;
	// busyIntegral accumulates radio-seconds of busy time up to
	// busyLast, advanced at every transition.
	obsBusy      bool
	busyRadios   int
	busyIntegral float64
	busyLast     sim.Time
}

// NewChannel creates a channel with the given radio radius in meters.
func NewChannel(sched *sim.Scheduler, timing Timing, radius float64) *Channel {
	if radius <= 0 {
		panic("phy: non-positive radio radius")
	}
	return &Channel{sched: sched, timing: timing, radius: radius, speedBound: -1}
}

// SetAudit attaches an invariant auditor observing this channel's
// transmissions, per-copy outcomes, and transmission-record pool. Call
// before traffic starts; a nil auditor leaves the channel unaudited.
func (c *Channel) SetAudit(a *obs.Auditor) { c.audit = a }

// Timing returns the channel's PHY timing parameters.
func (c *Channel) Timing() Timing { return c.timing }

// Radius returns the transmission radius in meters.
func (c *Channel) Radius() float64 { return c.radius }

// Stats returns the channel counters accumulated so far.
func (c *Channel) Stats() Stats { return c.stats }

// Attach registers a radio and returns its index: a batch of one, bound
// at once. All radios must be attached before the simulation starts
// transmitting.
func (c *Channel) Attach(pos Positioner, l Listener) int {
	i := c.AttachBatch(1)
	c.SetRadio(i, pos, l)
	return i
}

// AttachBatch claims n radio slots in one append per backing slice and
// returns the index of the first. The slots must each be bound with
// SetRadio before the simulation starts; binding is a per-slot write, so
// a host builder may fill the batch from parallel workers.
func (c *Channel) AttachBatch(n int) int {
	if n <= 0 {
		panic("phy: AttachBatch with non-positive count")
	}
	base := len(c.positions)
	c.positions = extend(c.positions, n)
	c.listeners = extend(c.listeners, n)
	c.busyCount = extend(c.busyCount, n)
	c.transmitting = extend(c.transmitting, n)
	return base
}

// extend appends n zero elements to s, in place when its capacity (a
// previous world's, after ReuseStorage) allows. It grows by one make
// rather than slices.Grow, whose append of a zeroed slice allocates
// that slice too in builds (-race) that do not elide it.
func extend[T any](s []T, n int) []T {
	if need := len(s) + n; need > cap(s) {
		g := make([]T, need, max(need, 2*cap(s)))
		copy(g, s)
		return g
	}
	s = s[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// ReuseStorage takes over the storage of prev, a channel whose world is
// finished, that grows with the radio count: the per-radio arrays, the
// position snapshot, the spatial index and the reachability walker's
// marks. c must have no radios attached yet, and prev must not be used
// again. Everything taken is overwritten before it is read (AttachBatch
// zeroes the slots it claims, the first refresh rebuilds the snapshot
// and the index, and every walk clears its marks), so c behaves exactly
// as a fresh channel. A nil prev is a no-op.
func (c *Channel) ReuseStorage(prev *Channel) {
	if prev == nil || prev == c {
		return
	}
	if len(c.positions) != 0 {
		panic("phy: ReuseStorage on a channel with radios attached")
	}
	c.positions, c.listeners = prev.positions[:0], prev.listeners[:0]
	c.busyCount, c.transmitting = prev.busyCount[:0], prev.transmitting[:0]
	c.snap, c.grid, c.walker = prev.snap[:0], prev.grid, prev.walker
	prev.positions, prev.listeners, prev.busyCount, prev.transmitting = nil, nil, nil, nil
	prev.snap, prev.grid, prev.walker, prev.gridOK = nil, geom.Grid{}, nil, false
}

// SetRadio binds a slot claimed by AttachBatch. Each slot must be bound
// exactly once.
func (c *Channel) SetRadio(i int, pos Positioner, l Listener) {
	if pos == nil || l == nil {
		panic("phy: SetRadio with nil position or listener")
	}
	if c.positions[i] != nil || c.listeners[i] != nil {
		panic("phy: SetRadio slot already bound")
	}
	c.positions[i] = pos
	c.listeners[i] = l
}

// SetPool attaches a worker pool the channel uses to parallelize
// snapshot position evaluation. Positions are pure functions of mover
// state, so the results — and therefore simulation summaries — are
// identical with or without a pool. Call before the simulation starts.
func (c *Channel) SetPool(p *pdes.Pool) { c.pool = p }

// PositionOf returns radio i's current position.
func (c *Channel) PositionOf(i int) geom.Point {
	return c.positions[i].PositionAt(c.sched.Now())
}

// SetMaxSpeed declares an upper bound, in meters per second, on how fast
// any attached radio can move. The bound lets the spatial index serve
// queries from a slightly stale snapshot — candidates are gathered with
// the query radius inflated by the maximum possible drift, and those
// near the disk's edge are re-checked against live positions — so the
// O(radios) snapshot rebuild amortizes over many transmissions instead
// of recurring at every distinct timestamp. An underestimate would
// silently drop receivers, or keep one that has left;
// callers must bound the fastest mover, not the average. Zero is valid
// and means the radios never move: the first snapshot then stays exact
// for the whole run and no position is evaluated after it. The bound is
// required: a channel queried before SetMaxSpeed panics.
func (c *Channel) SetMaxSpeed(mps float64) {
	if mps < 0 {
		panic("phy: negative speed bound")
	}
	c.speedBound = mps
	c.gridOK = false
}

// maxStaleFraction bounds snapshot staleness: the index is rebuilt once
// radios could have drifted further than this fraction of the radio
// radius, keeping the candidate over-approximation (and hence the
// per-query live re-check work) small.
const maxStaleFraction = 0.25

// driftEpsilon absorbs floating-point slack between a mover's computed
// displacement and the analytic speed*age bound.
const driftEpsilon = 1e-6

// Neighbors appends to buf the radios currently within range of radio i
// (excluding i itself), in ascending order, and returns the extended
// slice. The result is a snapshot valid only at the current simulated
// time.
func (c *Channel) Neighbors(i int, buf []int) []int {
	c.refresh()
	return c.neighborsRefreshed(i, buf)
}

// neighborsRefreshed is Neighbors once refresh has run at the current
// instant: exact from the snapshot when it is current, otherwise
// drift-inflated grid candidates filtered as staleNeighbors says.
func (c *Channel) neighborsRefreshed(i int, buf []int) []int {
	now := c.sched.Now()
	if now == c.snapTime {
		return c.exactNeighbors(i, buf)
	}
	return c.staleNeighbors(i, c.positions[i].PositionAt(now), now, buf)
}

// exactNeighbors appends radio i's ascending neighbour list while the
// snapshot is exact for the current instant: from the memo in a
// motionless world (computing and storing the list on first use),
// otherwise from the grid. It may write the memo, so it belongs to the
// scheduler's sequential context only.
func (c *Channel) exactNeighbors(i int, buf []int) []int {
	if c.nbrMemo != nil && c.nbrMemo[i] != nil {
		c.nbrMemoHit++
		for _, j := range c.nbrMemo[i] {
			buf = append(buf, int(j))
		}
		return buf
	}
	from := len(buf)
	buf = c.grid.Neighbors(i, c.radius, buf)
	if c.nbrMemo != nil {
		c.nbrMemoMiss++
		c.nbrMemo[i] = c.memoStore(buf[from:])
	}
	return buf
}

// nbrChunkLen is the memo's chunk size in entries (64 KiB of int32): a
// few hundred dense lists per allocation, and at most one partly filled
// chunk of slack per snapshot.
const nbrChunkLen = 16 << 10

// noNeighbors is the memoised list of a radio with nobody in range:
// empty but not nil, so it reads as computed.
var noNeighbors = []int32{}

// memoStore copies list into the current chunk, opening a new chunk
// when it does not fit, and returns the stored copy. A chunk is never
// re-grown, so earlier lists stay where they are.
func (c *Channel) memoStore(list []int) []int32 {
	if len(list) == 0 {
		return noNeighbors
	}
	if cap(c.nbrChunk)-len(c.nbrChunk) < len(list) {
		c.nbrChunk = make([]int32, 0, max(nbrChunkLen, len(list)))
	}
	off := len(c.nbrChunk)
	for _, j := range list {
		c.nbrChunk = append(c.nbrChunk, int32(j))
	}
	return c.nbrChunk[off:len(c.nbrChunk):len(c.nbrChunk)]
}

// refresh ensures the spatial index is usable at the current clock
// value: fresh enough that the drift margin stays within budget, and
// covering every attached radio. Movers are continuous at their segment
// boundaries, so a snapshot taken at time t is identical no matter where
// within t's event cascade it is taken.
func (c *Channel) refresh() {
	now := c.sched.Now()
	if c.gridOK && len(c.snap) == len(c.positions) {
		if now == c.snapTime {
			return
		}
		if c.speedBound == 0 {
			// Declared motionless: the snapshot is as exact at this
			// instant as at the one it was taken, so it is re-stamped
			// and Transmit, neighborsRefreshed and rxPosAt read it as
			// current instead of re-evaluating each candidate's
			// position.
			c.snapTime = now
			return
		}
		if c.driftMargin(now) <= c.radius*maxStaleFraction {
			return
		}
	}
	c.rebuildSnapshot(now)
}

// parallelSnapshotMin is the population below which parallel snapshot
// evaluation is not worth the dispatch overhead.
const parallelSnapshotMin = 4096

// rebuildSnapshot re-evaluates every radio position at now and rebuilds
// the grid over the fresh snapshot. With a pool attached and enough
// radios, position evaluation fans out over the workers; each writes a
// disjoint index range and movers are pure in t, so the snapshot is
// bit-identical to the sequential fill.
func (c *Channel) rebuildSnapshot(now sim.Time) {
	if c.speedBound < 0 {
		panic("phy: channel queried before SetMaxSpeed declared a speed bound")
	}
	n := len(c.positions)
	if cap(c.snap) < n {
		c.snap = make([]geom.Point, n)
	}
	c.snap = c.snap[:n]
	if c.pool != nil && n >= parallelSnapshotMin {
		c.pool.Do(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				c.snap[i] = c.positions[i].PositionAt(now)
			}
		})
	} else {
		for i, pos := range c.positions {
			c.snap[i] = pos.PositionAt(now)
		}
	}
	c.grid.Rebuild(c.snap, c.radius)
	c.snapTime = now
	c.gridOK = true
	// Every memoised list described the previous snapshot.
	c.nbrMemo, c.nbrChunk = nil, nil
	if c.speedBound == 0 {
		c.nbrMemo = make([][]int32, n)
	}
}

// CountReachable returns the number of radios connected to src
// (including src) in the current unit-disk graph, via a sequential walk
// over Neighbors' own answer. The edge set is therefore the live
// unit-disk graph at the current instant, and no forced snapshot
// rebuild is needed.
func (c *Channel) CountReachable(src int) int {
	c.refresh()
	if c.walkNbr == nil {
		if c.walker == nil {
			c.walker = pdes.NewWalker(nil)
		}
		// Bound once: a method value per call would escape to the heap
		// on every origination.
		c.walkNbr = c.neighborsRefreshed
	}
	return c.walker.Count(nil, 0, c.snap, src, c.walkNbr)
}

// driftMargin returns how far any radio can have moved since the
// snapshot was taken.
func (c *Channel) driftMargin(now sim.Time) float64 {
	age := now.Sub(c.snapTime)
	if age <= 0 {
		return 0
	}
	return c.speedBound*age.Seconds() + driftEpsilon
}

// staleNeighbors answers a neighbor query for radio i (live position pi)
// from a stale snapshot, with the same answer a linear scan over live
// positions gives, in ascending order. No radio is further than the
// drift margin m from its snapshot position, so the grid query at
// radius r + m yields a superset of the radios in range, and a
// candidate whose snapshot position is within r - m - driftEpsilon of pi
// is in range without a look at its live one: its live distance is at
// most r - driftEpsilon, the extra epsilon covering the rounding of the
// two squared distances. Only the annulus between is filtered by exact
// live distance, so a query costs O(local density) grid work and live
// position evaluations only for the radios near its edge.
func (c *Channel) staleNeighbors(i int, pi geom.Point, now sim.Time, buf []int) []int {
	m := c.driftMargin(now)
	from := len(buf)
	buf = c.grid.Gather(pi, c.radius+m, buf)
	out := buf[:from]
	r2 := c.radius * c.radius
	sure := -1.0 // squared snapshot distance within which a radio stays in range
	if in := c.radius - m - driftEpsilon; in > 0 {
		sure = in * in
	}
	for _, j := range buf[from:] {
		if j != i && (c.snap[j].Dist2(pi) <= sure || c.positions[j].PositionAt(now).Dist2(pi) <= r2) {
			out = append(out, j)
		}
	}
	slices.Sort(out[from:])
	return out
}

// Transmit puts a frame on the air from the given radio, returning the
// airtime. The MAC must have done its carrier-sense/backoff work; the
// channel does not police access timing. onDone, if non-nil, runs when
// the transmission ends (after delivery callbacks).
func (c *Channel) Transmit(radio int, f *packet.Frame, onDone TxEnder) sim.Duration {
	now := c.sched.Now()
	air := c.timing.Airtime(f.Bytes)
	tx := c.newTransmission(&c.chLane, f, radio, now, now.Add(air))
	c.refresh()
	if now == c.snapTime {
		tx.senderPos = c.snap[radio]
		tx.receivers = c.exactNeighbors(radio, tx.receivers)
	} else {
		tx.senderPos = c.positions[radio].PositionAt(now)
		tx.receivers = c.staleNeighbors(radio, tx.senderPos, now, tx.receivers)
	}
	c.launch(&c.chLane, -1, tx, now, onDone)
	return air
}

// chLane is one set of flight state: the flights on the air, the
// channel counters, the airtime bound and the transmission-record pool.
// The channel embeds its own. A speculative window gives each band a
// lane of its own, touched only by that lane's goroutine while the
// window is open; commit folds it into the channel's (fold), and its
// record pool stays with the lane for the next window.
type chLane struct {
	// active transmissions currently on the air, for overlap checks.
	active []*transmission
	stats  Stats
	// maxAir bounds how long any flight can have been on the air, and
	// hence how far a receiver can have drifted between two membership
	// snapshots: the reach of overlapScan's prefilter.
	maxAir sim.Duration
	// txFree recycles finished transmission records (receiver slices
	// and garbled sets included), so the hot path does not allocate.
	// Its effectiveness is exposed via TxPoolHitRate and the
	// phy.tx_pool_hit_rate telemetry gauge.
	txFree       []*transmission
	txPoolHits   uint64
	txPoolMisses uint64
}

// laneOf returns the flight state tx lives in: its speculative lane's
// while a window is open, the channel's own otherwise (lane -1).
func (c *Channel) laneOf(tx *transmission) *chLane {
	if tx.lane < 0 {
		return &c.chLane
	}
	return &c.specLanes[tx.lane]
}

// fold moves lane's flights (start order kept) and counters into ln,
// leaving lane empty but for its record pool.
func (ln *chLane) fold(lane *chLane) {
	for _, tx := range lane.active {
		tx.lane = -1
		ln.active = append(ln.active, tx)
	}
	clear(lane.active)
	ln.stats.Transmissions += lane.stats.Transmissions
	ln.stats.Deliveries += lane.stats.Deliveries
	ln.stats.Collisions += lane.stats.Collisions
	ln.stats.Lost += lane.stats.Lost
	ln.maxAir = max(ln.maxAir, lane.maxAir)
	ln.txPoolHits += lane.txPoolHits
	ln.txPoolMisses += lane.txPoolMisses
	*lane = chLane{active: lane.active[:0], txFree: lane.txFree}
}

// specBandOf maps a Y coordinate to its band, with the same function
// the manet engine uses to assign hosts to shards.
func (c *Channel) specBandOf(y float64) int {
	return geom.BandOf(y, c.specHeight, c.specBands)
}

// SpecWindowViable reports whether BeginSpecWindow would succeed on the
// current state: the identical border test, run without opening (or
// mutating) anything. Callers probe it before paying for the
// micro-checkpoint a speculative window needs — a window the partition
// would decline anyway then costs nothing but this scan.
func (c *Channel) SpecWindowViable(bands int, height float64) bool {
	if bands <= 1 {
		return false
	}
	guard := c.radius + driftEpsilon
	for _, tx := range c.active {
		if geom.BandOf(tx.senderPos.Y-guard, height, bands) != geom.BandOf(tx.senderPos.Y+guard, height, bands) {
			return false
		}
	}
	return true
}

// BeginSpecWindow opens a speculative window over the given number of
// horizontal bands of a map of the given height. It partitions the
// active transmissions into per-band lanes and reports whether the
// partition is sound: false (SpecWindowViable's answer) means some
// in-flight transmission's disk crosses a band border — it may interact
// with two bands — and the caller must run the window sequentially
// instead. Must be called from the scheduler's owning goroutine with no
// lane running.
func (c *Channel) BeginSpecWindow(bands int, height float64) bool {
	if c.specBands != 0 {
		panic("phy: speculative window already open")
	}
	if !c.SpecWindowViable(bands, height) {
		return false
	}
	c.refresh() // lanes query the grid concurrently; make it usable now
	c.specBands = bands
	c.specHeight = height
	for len(c.specLanes) < bands {
		c.specLanes = append(c.specLanes, chLane{})
	}
	for _, tx := range c.active {
		tx.lane = int32(c.specBandOf(tx.senderPos.Y))
		ln := &c.specLanes[tx.lane]
		ln.active = append(ln.active, tx)
	}
	clear(c.active)
	c.active = c.active[:0]
	return true
}

// CommitSpecWindow closes a validated window: each lane folds into the
// channel's own state in band order (start order within a band). On
// rollback the channel object is discarded wholesale instead, so there
// is no abort counterpart.
func (c *Channel) CommitSpecWindow() {
	if c.specBands == 0 {
		panic("phy: CommitSpecWindow without an open window")
	}
	for i := range c.specLanes[:c.specBands] {
		c.chLane.fold(&c.specLanes[i])
	}
	c.specBands = 0
}

// TransmitLane is Transmit routed through a speculative lane: outside a
// window (or for lane -1) it is exactly Transmit; inside one it runs the
// same flight against the lane's state, after proving the sender's
// whole interference disk lies inside the lane's band. Two
// transmissions whose disks lie inside disjoint bands cannot share a
// receiver, sense each other's carrier, or garble one another, so the
// lane resolves exactly the interactions the sequential engine would —
// a sender that cannot prove this flags its lane for rollback and bails
// before mutating anything.
func (c *Channel) TransmitLane(radio int, f *packet.Frame, onDone TxEnder, lane int) sim.Duration {
	if c.specBands == 0 || lane < 0 {
		return c.Transmit(radio, f, onDone)
	}
	now := c.sched.LaneNow(lane)
	air := c.timing.Airtime(f.Bytes)
	senderPos := c.positions[radio].PositionAt(now)
	guard := c.radius + driftEpsilon
	if c.specBandOf(senderPos.Y-guard) != lane || c.specBandOf(senderPos.Y+guard) != lane {
		c.sched.FlagLaneConflict(lane)
		return air
	}
	ln := &c.specLanes[lane]
	tx := c.newTransmission(ln, f, radio, now, now.Add(air))
	tx.senderPos = senderPos
	// Lanes run concurrently, so they skip the neighbour memo that
	// exactNeighbors writes; the stale query gives the same answer.
	tx.receivers = c.staleNeighbors(radio, senderPos, now, tx.receivers)
	c.launch(ln, lane, tx, now, onDone)
	return air
}

// newTransmission takes a transmission record off the lane's free list
// (or allocates one), so steady-state transmissions reuse their receiver
// slices and garbled sets instead of allocating per frame.
func (c *Channel) newTransmission(ln *chLane, f *packet.Frame, radio int, now, end sim.Time) *transmission {
	if c.transmitting[radio] {
		panic(fmt.Sprintf("phy: radio %d transmitting twice", radio))
	}
	var tx *transmission
	if n := len(ln.txFree); n > 0 {
		tx = ln.txFree[n-1]
		ln.txFree = ln.txFree[:n-1]
		tx.receivers = tx.receivers[:0]
		tx.recvSet.Clear()
		tx.garbledSet.Clear()
		ln.txPoolHits++
	} else {
		tx = &transmission{lane: -1, ch: c}
		tx.recvSet = nodeset.New(len(c.positions))
		tx.garbledSet = nodeset.New(len(c.positions))
		ln.txPoolMisses++
	}
	tx.frame = f
	tx.sender = radio
	tx.end = end
	if c.audit != nil {
		c.audit.AuditAcquire(now, "phy.tx", tx)
	}
	return tx
}

// launch is the flight tail both transmit heads share once the sender's
// position and receivers are known: it counts the flight on ln, resolves
// overlap against ln's flights, puts it on the air, raises the carrier,
// and arms the end of airtime on the lane's clock (lane -1: the
// channel's own state and the shared scheduler).
func (c *Channel) launch(ln *chLane, lane int, tx *transmission, now sim.Time, onDone TxEnder) {
	if air := tx.end.Sub(now); air > ln.maxAir {
		ln.maxAir = air
	}
	ln.stats.Transmissions++
	c.transmitting[tx.sender] = true
	tx.lane = int32(lane)

	// Collision rule: any temporal overlap at a common receiver garbles
	// both copies (unless the capture effect lets the much-stronger one
	// through); a receiver that is itself transmitting cannot decode.
	for _, i := range tx.receivers {
		tx.recvSet.Add(packet.NodeID(i))
	}
	c.overlapScan(ln, tx, now)
	for _, i := range tx.receivers {
		// A receiver already transmitting cannot decode the new frame.
		if c.transmitting[i] {
			tx.garble(i)
		}
	}
	ln.active = append(ln.active, tx)
	if c.audit != nil {
		// The frame must be live at the moment it goes on the air: a
		// pooled frame recycled while still queued would surface here.
		c.audit.AuditUse(now, "frame", tx.frame)
		c.audit.AuditTransmit(now, tx.sender, len(tx.receivers))
	}

	// Carrier becomes busy for the sender and all in-range radios.
	c.raiseBusy(tx.sender)
	for _, i := range tx.receivers {
		c.raiseBusy(i)
	}

	tx.onDone = onDone
	tx.endEvent = c.sched.LaneScheduleRunner(lane, tx.end, tx)
}

// overlapScan resolves overlap for tx against only the flights of ln whose senders can possibly share a receiver with it.
// Receiver membership is fixed when a flight starts, so if receiver i
// is covered by both tx (starting now) and an older flight o (started
// at t0), the triangle inequality bounds the sender separation:
//
//	|tx.senderPos - o.senderPos| <= r + r + v·(now-t0)
//
// — i's two membership positions differ by at most the drift v·(now-t0),
// and now-t0 is capped by o's airtime (<= maxAir: a lane's flights
// started in its window or before it, under the lane's bound or the
// channel's). The same bound covers
// the two half-duplex rules (a sender is a point of its own flight). Any
// active sender farther than 2r + v·maxAir away is therefore provably
// interference-free and skipped before any bitset is touched. The
// active list holds only the flights on the air, so one pass over it
// with this prefilter is the whole index.
func (c *Channel) overlapScan(ln *chLane, tx *transmission, now sim.Time) {
	reach := 2*c.radius + c.speedBound*max(c.maxAir, ln.maxAir).Seconds() + driftEpsilon
	reach2 := reach * reach
	for _, other := range ln.active {
		if other.senderPos.Dist2(tx.senderPos) <= reach2 {
			c.resolveAgainst(tx, other, now)
		}
	}
}

// resolveAgainst applies the collision/capture rule between tx and one
// active transmission using the bitset representation: the receivers
// covered by both flights are the word-parallel intersection of the two
// receiver bitsets, and without capture the whole intersection garbles
// in one pass over the backing words.
func (c *Channel) resolveAgainst(tx, other *transmission, now sim.Time) {
	if c.captureRatio > 0 {
		c.ovl = tx.recvSet.AppendAnd(other.recvSet, c.ovl[:0])
		for _, id := range c.ovl {
			c.resolveOverlap(tx, other, int(id), now)
		}
	} else {
		tx.garbledSet.UnionIntersection(tx.recvSet, other.recvSet)
		other.garbledSet.UnionIntersection(tx.recvSet, other.recvSet)
	}
	// The new sender cannot receive the ongoing frame (half-duplex),
	// and an ongoing sender cannot receive the new frame.
	if other.recvSet.Contains(packet.NodeID(tx.sender)) {
		other.garbledSet.Add(packet.NodeID(tx.sender))
	}
	if tx.recvSet.Contains(packet.NodeID(other.sender)) {
		tx.garbledSet.Add(packet.NodeID(other.sender))
	}
}

// rxPosAt returns receiver i's position at now, served from the grid
// snapshot (a plain array read) when the snapshot is exact for this
// instant — the same rule Transmit applies for receiver discovery —
// instead of re-evaluating the mover function per overlapping pair.
func (c *Channel) rxPosAt(i int, now sim.Time) geom.Point {
	if c.gridOK && now == c.snapTime && i < len(c.snap) {
		return c.snap[i]
	}
	return c.positions[i].PositionAt(now)
}

// resolveOverlap applies the collision/capture rule for one receiver
// covered by two overlapping transmissions.
func (c *Channel) resolveOverlap(a, b *transmission, i int, now sim.Time) {
	if c.captureRatio > 0 {
		rxPos := c.rxPosAt(i, now)
		da := a.senderPos.Dist2(rxPos)
		db := b.senderPos.Dist2(rxPos)
		// Free-space power goes as 1/d^2, so a power ratio of R means a
		// squared-distance ratio of R.
		switch {
		case db >= da*c.captureRatio:
			b.garble(i) // a captures
			return
		case da >= db*c.captureRatio:
			a.garble(i) // b captures
			return
		}
	}
	a.garble(i)
	b.garble(i)
}

// SetCapture enables the capture effect with the given power ratio
// (e.g. 4 = a 6 dB advantage lets the stronger frame survive). ratio <=
// 1 panics; call with 0 via the zero value to keep capture off.
func (c *Channel) SetCapture(ratio float64) {
	if ratio != 0 && ratio <= 1 {
		panic("phy: capture ratio must exceed 1 (or be 0 to disable)")
	}
	c.captureRatio = ratio
}

// finish ends a transmission on ln, the state it flew in: delivers
// intact copies, reports garbled ones, and releases the carrier. A
// lane's flight has all its receivers inside the lane's band
// (TransmitLane proved the disk in-band when it started, or the window
// partition did), so every carrier transition and delivery lands on
// the lane's own hosts. Speculation eligibility excludes the loss
// model, capture, the auditor, and the channel-load observer, so a
// lane never reaches their shared state.
func (c *Channel) finish(ln *chLane, tx *transmission) {
	if c.audit != nil {
		// Both the record and its frame must still be live at airtime
		// end; a recycle while in flight is a use-after-release.
		now := c.sched.Now()
		c.audit.AuditUse(now, "phy.tx", tx)
		c.audit.AuditUse(now, "frame", tx.frame)
	}
	// Remove from active list first so deliveries that trigger immediate
	// new transmissions (same instant) do not overlap with this one.
	if i := slices.Index(ln.active, tx); i >= 0 {
		ln.active = slices.Delete(ln.active, i, i+1)
	}
	c.transmitting[tx.sender] = false

	c.lowerBusy(tx.sender)
	for _, i := range tx.receivers {
		c.lowerBusy(i)
	}
	for _, i := range tx.receivers {
		switch {
		case tx.isGarbled(i) && !c.DisableCollisions:
			ln.stats.Collisions++
			if c.audit != nil {
				c.audit.AuditCollided(c.sched.Now(), i)
			}
			c.listeners[i].DeliverGarbled(tx.frame)
		case c.lossRate > 0 && c.lossRNG.Float64() < c.lossRate:
			// Fading loss: the copy silently vanishes (the receiver still
			// sensed carrier, so MAC timing is unaffected).
			ln.stats.Lost++
			if c.audit != nil {
				c.audit.AuditLost(c.sched.Now(), i)
			}
		default:
			ln.stats.Deliveries++
			if c.audit != nil {
				c.audit.AuditDelivered(c.sched.Now(), i)
			}
			c.listeners[i].Deliver(tx.frame)
		}
	}
	if tx.onDone != nil {
		tx.onDone.TxEnded()
	}
	// Recycle last: the delivery and onDone callbacks above may have
	// started new transmissions, which must not have been handed this
	// record while it was still being read.
	if c.audit != nil {
		now := c.sched.Now()
		c.audit.AuditTransmitEnd(now, tx.sender, len(tx.receivers))
		c.audit.AuditRelease(now, "phy.tx", tx)
	}
	tx.frame = nil
	tx.onDone = nil
	tx.endEvent = nil
	ln.txFree = append(ln.txFree, tx)
}

func (c *Channel) raiseBusy(i int) {
	c.busyCount[i]++
	if c.busyCount[i] == 1 {
		if c.obsBusy {
			c.accumBusy()
			c.busyRadios++
		}
		c.listeners[i].CarrierBusy()
	}
}

func (c *Channel) lowerBusy(i int) {
	c.busyCount[i]--
	if c.busyCount[i] < 0 {
		panic("phy: busy count underflow")
	}
	if c.busyCount[i] == 0 {
		if c.obsBusy {
			c.accumBusy()
			c.busyRadios--
		}
		c.listeners[i].CarrierIdle()
	}
}

// accumBusy advances the busy-time integral to the current instant while
// busyRadios is still the count that held since busyLast.
func (c *Channel) accumBusy() {
	now := c.sched.Now()
	if c.busyRadios > 0 {
		c.busyIntegral += float64(c.busyRadios) * now.Sub(c.busyLast).Seconds()
	}
	c.busyLast = now
}

// BusyRadioSeconds returns the cumulative radio-seconds of sensed-busy
// carrier up to the current instant. Dividing a window's increment by
// (window length x radios) gives the mean channel busy fraction — the
// channel-load series the telemetry subsystem samples. Zero unless
// Observe enabled the accounting before traffic started.
func (c *Channel) BusyRadioSeconds() float64 {
	if !c.obsBusy {
		return 0
	}
	now := c.sched.Now()
	s := c.busyIntegral
	if c.busyRadios > 0 {
		s += float64(c.busyRadios) * now.Sub(c.busyLast).Seconds()
	}
	return s
}

// TxPoolHitRate returns the fraction of transmissions served from the
// free list (0 before any transmission). Steady state approaches 1: only
// the records covering the peak in-flight count are ever allocated.
func (c *Channel) TxPoolHitRate() float64 {
	total := c.txPoolHits + c.txPoolMisses
	if total == 0 {
		return 0
	}
	return float64(c.txPoolHits) / float64(total)
}

// NbrMemoStats returns how many exact Transmit, Neighbors and
// reachability-walk queries were served from the static-neighbour memo
// versus computed from the grid and stored. Both stay zero in a mobile
// world, where the memo is never consulted.
func (c *Channel) NbrMemoStats() (hits, misses uint64) {
	return c.nbrMemoHit, c.nbrMemoMiss
}

// NbrMemoHitRate returns the fraction of memo lookups that found their
// list already computed (0 before any lookup).
func (c *Channel) NbrMemoHitRate() float64 {
	hits, misses := c.NbrMemoStats()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// SetLoss enables independent per-reception Bernoulli loss with the
// given probability, modeling fading/shadowing beyond the unit-disk
// abstraction. rate outside [0, 1) or a nil rng panics.
func (c *Channel) SetLoss(rate float64, rng *sim.RNG) {
	if rate < 0 || rate >= 1 {
		panic("phy: loss rate must be in [0, 1)")
	}
	if rate > 0 && rng == nil {
		panic("phy: loss model needs an RNG")
	}
	c.lossRate = rate
	c.lossRNG = rng
}
