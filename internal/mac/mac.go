// Package mac implements the IEEE 802.11-like distributed coordination
// function (DCF) the paper's hosts use to access the medium: carrier
// sense with DIFS deferral, a slotted random backoff that freezes while
// the medium is busy, and plain unacknowledged transmission for broadcast
// frames (no RTS/CTS, no ACK, no retransmission — the MAC specification
// forbids acknowledging broadcasts).
//
// A MAC owns one radio on a phy.Channel. Higher layers enqueue frames;
// the MAC calls back when a frame's transmission actually starts — the
// point after which the paper's schemes can no longer cancel a pending
// rebroadcast — and when it completes. Frames still waiting for the
// medium can be cancelled, which is how the threshold schemes inhibit
// redundant rebroadcasts.
package mac

import (
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/sim"
)

// TxObserver is notified about an enqueued frame's transmission:
// TxStarted runs at the instant the transmission begins (the frame is
// "on the air" and can no longer be cancelled); TxDone runs when the
// transmission ends (or a unicast frame is abandoned). Callers with a
// natural per-frame record implement it on that record — an interface
// value of an existing object costs nothing, where the closure pair it
// replaces cost two allocations per enqueue site.
type TxObserver interface {
	TxStarted()
	TxDone()
}

// TxFuncs adapts bare functions to TxObserver for call sites without a
// record type; either field may be nil.
type TxFuncs struct {
	Start, Done func()
}

// TxStarted implements TxObserver.
func (t TxFuncs) TxStarted() {
	if t.Start != nil {
		t.Start()
	}
}

// TxDone implements TxObserver.
func (t TxFuncs) TxDone() {
	if t.Done != nil {
		t.Done()
	}
}

// Pending is a frame handed to the MAC and not yet fully transmitted.
//
// Pooling contract: the MAC recycles a Pending record once its frame
// completes (TxDone has run) or once a cancelled record leaves the
// queue, so a caller must not use a handle after its transmission
// completed or after cancelling it — the record may already describe a
// later frame. The host layers satisfy this: they consult a handle only
// while the rebroadcast decision is open. Until the record is reused its
// flags keep reporting the final outcome.
type Pending struct {
	Frame *packet.Frame

	// obs observes the transmission start and end (may be nil).
	obs TxObserver

	cancelled  bool
	started    bool
	failed     bool
	retransmit bool // true when requeued after a missing ACK
}

// Failed reports whether a unicast frame exhausted its retransmissions
// without being acknowledged.
func (p *Pending) Failed() bool { return p.failed }

// Stats counts per-MAC activity.
type Stats struct {
	Enqueued  int
	Sent      int // transmissions started, including retransmissions
	Cancelled int
	AcksSent  int // link-layer ACKs transmitted for received unicasts
	Retries   int // unicast retransmissions after a missing ACK
	Dropped   int // unicast frames abandoned after RetryLimit retries
	Stalls    int // scheduled attempts frozen by carrier (contention events)
}

// RetryLimit is the number of retransmissions a unicast frame gets
// before the MAC abandons it (the 802.11 short retry limit is 7; a
// smaller value keeps simulated storms from compounding).
const RetryLimit = 4

// Shared is the state every MAC of one world has in common: the
// scheduler, the channel with its timing, the RTS threshold and the
// auditor. Each MAC reaches it through one pointer, so none of it is
// paid per host, and its setters act on every MAC built over it at
// once — which is what they mean.
type Shared struct {
	sched *sim.Scheduler
	ch    *phy.Channel
	t     phy.Timing

	// rtsThreshold enables RTS/CTS for unicast data frames of at least
	// this many bytes; 0 disables the exchange entirely.
	rtsThreshold int
	// audit, when non-nil, observes the Pending pool lifecycle, so a
	// double-release or use-after-release of a recycled record is
	// reported instead of silently corrupting a later frame.
	audit *obs.Auditor
}

// NewShared returns the shared block for the MACs of one world on ch.
func NewShared(sched *sim.Scheduler, ch *phy.Channel) *Shared {
	return &Shared{sched: sched, ch: ch, t: ch.Timing()}
}

// SetRTSThreshold enables the RTS/CTS exchange for unicast data frames
// of at least threshold bytes on every MAC of the world (0 disables it,
// the default). Broadcast frames never use RTS/CTS — the paper's point
// about why broadcast collisions are unavoidable.
func (w *Shared) SetRTSThreshold(threshold int) { w.rtsThreshold = threshold }

// SetAudit attaches an invariant auditor observing the Pending-record
// pools of every MAC of the world. A nil auditor (the default) leaves
// them unaudited.
func (w *Shared) SetAudit(a *obs.Auditor) { w.audit = a }

// MAC is the per-host medium access controller. It implements
// phy.Listener; the host's upper layer receives frames through the
// Receiver callback. It holds only what differs between hosts: the
// world's constants sit in the Shared block w points to, and the
// callback adapters (respTimer, dataEnd, rtsEnd, ackSend) are defined
// types over MAC, so a MAC converts its own pointer instead of storing
// one per role.
type MAC struct {
	w     *Shared
	radio int
	rng   *sim.RNG
	stats Stats
	cw    int // current contention window (grows on retries)

	// Receiver, if set, receives every intact frame delivered to this
	// radio. GarbledReceiver, if set, receives collided frames. Both are
	// interfaces rather than function fields so a host implementing them
	// attaches itself without allocating bound closures.
	Receiver        FrameReceiver
	GarbledReceiver GarbledReceiver

	// queue[qhead:] is the FIFO of waiting frames; consuming by index
	// instead of reslicing keeps the backing array's capacity, so a
	// steady-state MAC stops allocating queue storage.
	queue []*Pending
	qhead int

	// Pending recycling, so the steady-state per-frame path allocates
	// nothing.
	pFree    []*Pending
	inflight *Pending // the frame whose airtime end dataEnd awaits

	// The delayed link-layer ACK owed after receiving unicast data: the
	// armed SIFS timer and its destination. At most one is pending —
	// a second data frame cannot end within SIFS of the first without
	// the two having collided.
	ackTimer *sim.Event
	ackTo    packet.NodeID
	addr     packet.NodeID // link-layer address (the owning host's id)

	transmitting bool
	busy         bool
	awaitKind    awaitKind
	idleSince    sim.Time

	// backoffRemaining is the frozen residual backoff in slots; -1 means
	// no backoff is owed and the MAC may use immediate access after DIFS.
	backoffRemaining int

	// awaiting is the unicast frame whose control response (CTS or ACK)
	// we are waiting for, with its timeout event and retry count.
	awaiting   *Pending
	awaitTimer *sim.Event
	retries    int

	// navUntil is the network allocation vector: overheard RTS/CTS
	// reservations keep the (virtual) medium busy until this time.
	navUntil sim.Time
	navEvent *sim.Event

	// lane is the speculative lane owning this MAC's host, -1 (the
	// default) outside the speculative engine. Hot-path timers route
	// through the scheduler's Lane* entry points with it, which fall
	// through to the shared path whenever no window is open.
	lane int

	// A scheduled future transmission attempt, if any.
	txEvent *sim.Event
	// txEventBase/txEventSlots reconstruct consumed slots if the attempt
	// is interrupted by carrier. txEventSlots == -1 marks an
	// immediate-access attempt (no backoff in progress).
	txEventBase  sim.Time
	txEventSlots int
}

// awaitKind discriminates what control frame the MAC is waiting for.
type awaitKind uint8

const (
	awaitNone awaitKind = iota
	awaitCTS
	awaitACK
)

// FrameReceiver is the upper layer's intake for intact frames.
type FrameReceiver interface {
	ReceiveFrame(f *packet.Frame)
}

// GarbledReceiver is the upper layer's intake for collided frames.
type GarbledReceiver interface {
	ReceiveGarbled(f *packet.Frame)
}

var _ phy.Listener = (*MAC)(nil)

// New attaches a new MAC to the channel at the given position provider,
// with a Shared block of its own. Its link-layer address defaults to its
// radio index (which is also how the host assemblies number their
// hosts); SetAddr overrides it.
func New(sched *sim.Scheduler, ch *phy.Channel, pos phy.Positioner, rng *sim.RNG) *MAC {
	m := new(MAC)
	NewInto(m, NewShared(sched, ch), pos, rng, ch.AttachBatch(1))
	return m
}

// dataEnd completes the in-flight data/broadcast frame at airtime end.
type dataEnd MAC

// TxEnded implements phy.TxEnder.
func (e *dataEnd) TxEnded() {
	m := (*MAC)(e)
	m.finishTransmission(m.inflight)
}

// rtsEnd arms the CTS timeout when the in-flight RTS's airtime ends.
type rtsEnd MAC

// TxEnded implements phy.TxEnder.
func (e *rtsEnd) TxEnded() {
	m := (*MAC)(e)
	m.finishRTS(m.inflight)
}

// NewInto initializes a caller-allocated (typically slab) MAC in place
// over the world's Shared block, binding a radio slot pre-claimed with
// phy.Channel.AttachBatch. It writes the complete record, so a reused
// slot keeps nothing of its previous life; New is this over a fresh
// allocation and a batch of one. The split lets a host builder
// construct MACs from parallel workers: SetRadio writes are per-slot and
// therefore disjoint, unlike a shared append.
func NewInto(m *MAC, w *Shared, pos phy.Positioner, rng *sim.RNG, radio int) {
	*m = MAC{
		w:                w,
		rng:              rng,
		cw:               w.t.CWMin,
		backoffRemaining: -1,
		idleSince:        w.sched.Now(),
		radio:            radio,
		addr:             packet.NodeID(radio),
		lane:             -1,
	}
	w.ch.SetRadio(radio, pos, m)
}

// allocPending takes a record off the free list or allocates one.
func (m *MAC) allocPending(f *packet.Frame, obs TxObserver) *Pending {
	var p *Pending
	if l := len(m.pFree); l > 0 {
		p = m.pFree[l-1]
		m.pFree[l-1] = nil
		m.pFree = m.pFree[:l-1]
		*p = Pending{Frame: f, obs: obs}
	} else {
		p = &Pending{Frame: f, obs: obs}
	}
	if m.w.audit != nil {
		m.w.audit.AuditAcquire(m.w.sched.Now(), "mac.pending", p)
	}
	return p
}

// recyclePending returns a finished record to the free list. Callback
// and frame references are dropped immediately; state flags keep
// reporting the final outcome until the record is reused.
func (m *MAC) recyclePending(p *Pending) {
	if m.w.audit != nil {
		m.w.audit.AuditRelease(m.w.sched.Now(), "mac.pending", p)
	}
	p.Frame = nil
	p.obs = nil
	m.pFree = append(m.pFree, p)
}

// SetAddr sets the link-layer address unicast destinations are matched
// against (and ACKs are sourced from).
func (m *MAC) SetAddr(a packet.NodeID) { m.addr = a }

// Addr returns the link-layer address.
func (m *MAC) Addr() packet.NodeID { return m.addr }

// Radio returns the channel radio index of this MAC.
func (m *MAC) Radio() int { return m.radio }

// SetLane assigns the speculative lane owning this MAC (-1 detaches).
// The speculative engine sets it once per static world; it must equal
// the band of the owning host's position.
func (m *MAC) SetLane(lane int) { m.lane = lane }

// Lane returns the speculative lane owning this MAC, -1 if none.
func (m *MAC) Lane() int { return m.lane }

// now returns the clock this MAC observes: its lane clock while a
// speculative window is open, the shared clock otherwise.
func (m *MAC) now() sim.Time { return m.w.sched.LaneNow(m.lane) }

// Stats returns the MAC counters.
func (m *MAC) Stats() Stats { return m.stats }

// Enqueue submits a frame for transmission and returns its handle. obs
// (which may be nil) observes the transmission's start and end.
func (m *MAC) Enqueue(f *packet.Frame, obs TxObserver) *Pending {
	p := m.allocPending(f, obs)
	m.queue = append(m.queue, p)
	m.stats.Enqueued++
	// A frame arriving to a busy medium owes a fresh backoff draw, per
	// the DCF access rules.
	if m.busy && m.backoffRemaining < 0 {
		m.backoffRemaining = m.drawBackoff()
	}
	m.maybeSchedule()
	return p
}

// Cancel withdraws a frame that has not started transmitting. It returns
// true if the frame was cancelled, false if transmission already began.
func (m *MAC) Cancel(p *Pending) bool {
	if p == nil || p.started {
		return false
	}
	if p.cancelled {
		return true
	}
	p.cancelled = true
	m.stats.Cancelled++
	// If this was the head frame with a pending attempt, retract the
	// attempt; the residual backoff is preserved for the next frame.
	if m.txEvent != nil && m.headPending() == nil {
		m.interruptAttempt(false)
	}
	m.maybeSchedule()
	return true
}

// headPending returns the first non-cancelled queued frame, trimming
// cancelled entries from the front.
func (m *MAC) headPending() *Pending {
	for m.qhead < len(m.queue) && m.queue[m.qhead].cancelled {
		m.recyclePending(m.queue[m.qhead])
		m.queue[m.qhead] = nil
		m.qhead++
	}
	if m.qhead == len(m.queue) {
		m.queue = m.queue[:0]
		m.qhead = 0
		return nil
	}
	return m.queue[m.qhead]
}

// drawBackoff samples a fresh backoff in [0, cw] slots. The contention
// window starts at CWMin and doubles on unicast retransmissions up to
// CWMax, per the DCF's binary exponential backoff; broadcast frames are
// never retransmitted and always see CWMin.
func (m *MAC) drawBackoff() int {
	return m.rng.IntN(m.cw + 1)
}

// growCW doubles the contention window after a missing ACK.
func (m *MAC) growCW() {
	m.cw = (m.cw+1)*2 - 1
	if m.cw > m.w.t.CWMax {
		m.cw = m.w.t.CWMax
	}
}

// resetCW restores the contention window after success or drop.
func (m *MAC) resetCW() { m.cw = m.w.t.CWMin }

// maybeSchedule arranges the next transmission attempt if conditions
// allow: a frame is queued, nothing is being transmitted, no attempt is
// already scheduled, and the medium is idle.
func (m *MAC) maybeSchedule() {
	if m.transmitting || m.awaiting != nil || m.txEvent != nil || m.busy {
		return
	}
	if m.now() < m.navUntil {
		return // virtual carrier (NAV) still set; navEvent will resume us
	}
	if m.headPending() == nil {
		return
	}
	now := m.now()
	effStart := m.idleSince.Add(m.w.t.DIFS)

	if m.backoffRemaining < 0 {
		if now >= effStart {
			// Immediate access: the medium has already been idle for at
			// least DIFS, so the frame goes out right away.
			m.txEventBase = now
			m.txEventSlots = -1
			m.txEvent = m.w.sched.LaneScheduleRunner(m.lane, now, m)
			return
		}
		// The medium has not been idle long enough: the DCF requires a
		// full deferral with a fresh random backoff. This is what
		// desynchronizes the neighbors of a sender, who all see the
		// medium free at the same instant when its frame ends.
		m.backoffRemaining = m.drawBackoff()
	}

	// Backoff countdown: slots elapse only while the medium has been
	// idle longer than DIFS, so credit any already-elapsed idle slots.
	if now > effStart {
		consumed := int(now.Sub(effStart) / m.w.t.SlotTime)
		if consumed > m.backoffRemaining {
			consumed = m.backoffRemaining
		}
		m.backoffRemaining -= consumed
		effStart = now
	}
	at := effStart.Add(sim.Duration(m.backoffRemaining) * m.w.t.SlotTime)
	m.txEventBase = effStart
	m.txEventSlots = m.backoffRemaining
	m.txEvent = m.w.sched.LaneScheduleRunner(m.lane, at, m)
}

// interruptAttempt cancels the scheduled attempt. If freeze is true the
// residual backoff is recomputed from elapsed slots (carrier interrupted
// us); otherwise the residual is left as is (head frame was cancelled).
func (m *MAC) interruptAttempt(freeze bool) {
	if m.txEvent == nil {
		return
	}
	m.w.sched.LaneCancel(m.lane, m.txEvent)
	m.txEvent = nil
	if !freeze {
		if m.txEventSlots >= 0 {
			m.backoffRemaining = m.txEventSlots
		}
		return
	}
	now := m.now()
	if m.txEventSlots < 0 {
		// Immediate access was interrupted: the frame now owes a real
		// backoff, per DCF.
		m.backoffRemaining = m.drawBackoff()
		return
	}
	consumed := 0
	if now > m.txEventBase {
		consumed = int(now.Sub(m.txEventBase) / m.w.t.SlotTime)
	}
	if consumed > m.txEventSlots {
		consumed = m.txEventSlots
	}
	m.backoffRemaining = m.txEventSlots - consumed
}

// startTransmission fires when deferral and backoff have elapsed.
func (m *MAC) startTransmission() {
	m.txEvent = nil
	p := m.headPending()
	if p == nil {
		return
	}
	m.queue[m.qhead] = nil
	m.qhead++
	if m.qhead == len(m.queue) {
		m.queue = m.queue[:0]
		m.qhead = 0
	}
	m.transmitting = true
	m.backoffRemaining = -1
	p.started = true
	m.stats.Sent++
	if m.w.audit != nil {
		m.w.audit.AuditUse(m.w.sched.Now(), "mac.pending", p)
	}
	if p.obs != nil && !p.retransmit {
		p.obs.TxStarted()
	}
	// At most one transmission with a completion callback is outstanding
	// per MAC (guarded by m.transmitting), so the bound finish closures
	// can read the frame from m.inflight instead of capturing it.
	m.inflight = p
	if m.useRTS(p.Frame) {
		// Reserve the medium first: RTS now, data after the CTS.
		nav := m.exchangeNAV(p.Frame)
		rts := packet.NewRTS(m.addr, p.Frame.Dest, nav, m.w.ch.PositionOf(m.radio))
		m.w.ch.Transmit(m.radio, rts, (*rtsEnd)(m))
		return
	}
	m.w.ch.TransmitLane(m.radio, p.Frame, (*dataEnd)(m), m.lane)
}

// useRTS reports whether the frame warrants an RTS/CTS exchange.
func (m *MAC) useRTS(f *packet.Frame) bool {
	return m.w.rtsThreshold > 0 && f.Dest != packet.DestBroadcast &&
		f.Kind == packet.KindData && f.Bytes >= m.w.rtsThreshold
}

// exchangeNAV is the reservation an RTS announces: CTS + data + ACK and
// the three SIFS gaps between them.
func (m *MAC) exchangeNAV(f *packet.Frame) sim.Duration {
	return 3*m.w.t.SIFS + m.w.t.Airtime(packet.CTSBytes) +
		m.w.t.Airtime(f.Bytes) + m.w.t.Airtime(packet.AckBytes)
}

// finishRTS arms the CTS timeout after the RTS airtime ends.
func (m *MAC) finishRTS(p *Pending) {
	m.transmitting = false
	m.awaiting = p
	m.awaitKind = awaitCTS
	timeout := m.w.t.SIFS + m.w.t.Airtime(packet.CTSBytes) + 2*m.w.t.SlotTime
	m.awaitTimer = m.w.sched.AfterRunner(timeout, (*respTimer)(m))
}

// finishTransmission runs at airtime end. Broadcast (and ACK) frames
// complete immediately with the DCF's post-transmission backoff; unicast
// data frames instead arm the ACK timeout.
func (m *MAC) finishTransmission(p *Pending) {
	m.transmitting = false
	if m.w.audit != nil {
		m.w.audit.AuditUse(m.w.sched.Now(), "mac.pending", p)
	}
	if p.Frame.Dest != packet.DestBroadcast && p.Frame.Kind != packet.KindAck {
		m.awaiting = p
		m.awaitKind = awaitACK
		// The ACK arrives SIFS + ACK airtime after our frame ends; allow
		// two slots of slack before declaring it missing.
		timeout := m.w.t.SIFS + m.w.t.Airtime(packet.AckBytes) + 2*m.w.t.SlotTime
		m.awaitTimer = m.w.sched.AfterRunner(timeout, (*respTimer)(m))
		return
	}
	m.backoffRemaining = m.drawBackoff()
	if p.obs != nil {
		p.obs.TxDone()
	}
	m.recyclePending(p)
	m.maybeSchedule()
}

// RunEvent fires a scheduled transmission attempt: the MAC schedules
// itself as a sim.Runner so arming the attempt timer never allocates.
func (m *MAC) RunEvent() { m.startTransmission() }

// respTimer adapts the response-timeout callback to sim.Runner. It is a
// view of the MAC itself, so arming the await timer is allocation-free.
type respTimer MAC

func (r *respTimer) RunEvent() { (*MAC)(r).responseTimeout() }

// responseTimeout fires when the awaited CTS or ACK never arrived:
// retry the whole exchange with a doubled contention window, or drop the
// frame after RetryLimit.
func (m *MAC) responseTimeout() {
	p := m.awaiting
	m.awaiting = nil
	m.awaitKind = awaitNone
	m.awaitTimer = nil
	if p == nil {
		return
	}
	if m.retries >= RetryLimit {
		m.retries = 0
		m.resetCW()
		p.failed = true
		m.stats.Dropped++
		m.backoffRemaining = m.drawBackoff()
		if p.obs != nil {
			p.obs.TxDone()
		}
		m.recyclePending(p)
		m.maybeSchedule()
		return
	}
	m.retries++
	m.stats.Retries++
	m.growCW()
	m.backoffRemaining = m.drawBackoff()
	p.retransmit = true
	// Reinsert at the head: the DCF retries the same frame first.
	if m.qhead > 0 {
		m.qhead--
		m.queue[m.qhead] = p
	} else {
		m.queue = append(m.queue, nil)
		copy(m.queue[1:], m.queue)
		m.queue[0] = p
	}
	m.maybeSchedule()
}

// ackReceived completes the awaited unicast frame successfully.
func (m *MAC) ackReceived() {
	p := m.awaiting
	m.awaiting = nil
	m.awaitKind = awaitNone
	if m.awaitTimer != nil {
		m.w.sched.Cancel(m.awaitTimer)
		m.awaitTimer = nil
	}
	m.retries = 0
	m.resetCW()
	m.backoffRemaining = m.drawBackoff()
	if p != nil {
		if p.obs != nil {
			p.obs.TxDone()
		}
		m.recyclePending(p)
	}
	m.maybeSchedule()
}

// ctsReceived sends the reserved data frame SIFS after the CTS.
func (m *MAC) ctsReceived() {
	p := m.awaiting
	m.awaiting = nil
	m.awaitKind = awaitNone
	if m.awaitTimer != nil {
		m.w.sched.Cancel(m.awaitTimer)
		m.awaitTimer = nil
	}
	if p == nil {
		return
	}
	m.w.sched.After(m.w.t.SIFS, func() {
		if m.transmitting {
			return // pathological overlap; the ACK timeout will retry
		}
		m.transmitting = true
		m.inflight = p
		m.w.ch.Transmit(m.radio, p.Frame, (*dataEnd)(m))
	})
}

// setNAV extends the virtual carrier reservation after overhearing an
// RTS or CTS addressed to someone else.
func (m *MAC) setNAV(until sim.Time) {
	now := m.w.sched.Now()
	if until <= now || until <= m.navUntil {
		return
	}
	m.navUntil = until
	if m.txEvent != nil {
		m.interruptAttempt(true)
	}
	if m.navEvent != nil {
		m.w.sched.Cancel(m.navEvent)
	}
	m.navEvent = m.w.sched.Schedule(until, func() {
		m.navEvent = nil
		if !m.busy {
			// The DIFS deferral restarts when the reservation releases.
			m.idleSince = m.w.sched.Now()
			m.maybeSchedule()
		}
	})
}

// sendCTS grants a reservation SIFS after the RTS.
func (m *MAC) sendCTS(to packet.NodeID, nav sim.Duration) {
	m.w.sched.After(m.w.t.SIFS, func() {
		if m.transmitting {
			return
		}
		grant := nav - m.w.t.SIFS - m.w.t.Airtime(packet.CTSBytes)
		if grant < 0 {
			grant = 0
		}
		cts := packet.NewCTS(m.addr, to, grant, m.w.ch.PositionOf(m.radio))
		m.w.ch.Transmit(m.radio, cts, nil)
	})
}

// ackSend adapts the delayed-ACK callback to sim.Runner. It is a view of
// the MAC itself, so arming the SIFS timer is allocation-free and the
// pending ACK is checkpointable state rather than a captured closure.
type ackSend MAC

func (a *ackSend) RunEvent() { (*MAC)(a).fireAck() }

// sendAck transmits the link-layer ACK after SIFS, bypassing the backoff
// machinery (SIFS precedence is what guarantees ACKs win the medium).
func (m *MAC) sendAck(to packet.NodeID) {
	if m.ackTimer != nil {
		// Unreachable with a physical channel (a second data frame
		// cannot end within SIFS of the first without colliding), but a
		// direct Deliver must not leak the old timer.
		m.w.sched.Cancel(m.ackTimer)
	}
	m.ackTo = to
	m.ackTimer = m.w.sched.AfterRunner(m.w.t.SIFS, (*ackSend)(m))
}

// fireAck puts the owed ACK on the air when its SIFS gap elapses.
func (m *MAC) fireAck() {
	m.ackTimer = nil
	if m.transmitting {
		return // pathological overlap; drop the ACK
	}
	m.stats.AcksSent++
	ack := packet.NewAck(m.addr, m.ackTo, m.w.ch.PositionOf(m.radio))
	m.w.ch.Transmit(m.radio, ack, nil)
}

// CarrierBusy implements phy.Listener.
func (m *MAC) CarrierBusy() {
	m.busy = true
	if m.txEvent != nil {
		m.stats.Stalls++
		m.interruptAttempt(true)
	}
}

// CarrierIdle implements phy.Listener.
func (m *MAC) CarrierIdle() {
	m.busy = false
	m.idleSince = m.now()
	m.maybeSchedule() // no-op while the NAV is still set
}

// Deliver implements phy.Listener.
func (m *MAC) Deliver(f *packet.Frame) {
	switch f.Kind {
	case packet.KindAck:
		if f.Dest == m.addr && m.awaitKind == awaitACK {
			m.ackReceived()
		}
		return // control frames never reach the host layer
	case packet.KindRTS:
		if f.Dest == m.addr {
			m.sendCTS(f.Sender, f.NAV)
		} else {
			m.setNAV(m.w.sched.Now().Add(f.NAV))
		}
		return
	case packet.KindCTS:
		if f.Dest == m.addr && m.awaitKind == awaitCTS {
			m.ctsReceived()
		} else if f.Dest != m.addr {
			m.setNAV(m.w.sched.Now().Add(f.NAV))
		}
		return
	}
	// Acknowledge unicast data addressed to us before handing it up.
	if f.Dest == m.addr && f.Kind == packet.KindData {
		m.sendAck(f.Sender)
	}
	if m.Receiver != nil {
		m.Receiver.ReceiveFrame(f)
	}
}

// DeliverGarbled implements phy.Listener.
func (m *MAC) DeliverGarbled(f *packet.Frame) {
	if m.GarbledReceiver != nil {
		m.GarbledReceiver.ReceiveGarbled(f)
	}
}
