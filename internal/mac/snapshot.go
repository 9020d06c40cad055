package mac

import (
	"fmt"
	"math"

	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/sim"
)

// BadRef is the sentinel a Snapshot resolver returns for an object it
// does not recognize; Snapshot aborts instead of recording a dangling
// reference. (Mirrors phy.BadRef; redeclared so mac's resolvers read
// naturally without importing phy at every call site.)
const BadRef = ^uint32(0)

// PendingState describes one Pending record in a MACState. Frame and
// observer are caller-defined references — the checkpointing layer owns
// the tables of live frames and of rebroadcast observers — and the
// outcome flags reproduce the record exactly, including a cancelled
// entry still waiting to be trimmed from the queue.
type PendingState struct {
	FrameRef   uint32
	ObsRef     uint32
	Started    bool
	Cancelled  bool
	Retransmit bool
}

// MACState is one MAC's checkpointed dynamic state: DCF counters and
// backoff, the waiting queue, the in-flight frame, the awaited ACK
// exchange, the owed link-layer ACK, and the (at, seq) keys of every
// armed timer. RTS/CTS state is deliberately absent — checkpointing a
// MAC with a reservation in progress is unsupported.
type MACState struct {
	Stats            Stats
	CW               int
	RNG              [4]uint64
	Busy             bool
	IdleSince        sim.Time
	BackoffRemaining int
	Retries          int

	// Queue holds the waiting frames from the head, including cancelled
	// entries not yet trimmed (their records are still pool-live).
	Queue []PendingState

	// The frame currently on the air, if any (its airtime-end callback
	// reads it back through the channel's completion handler).
	HasInflight bool
	Inflight    PendingState

	// The unicast frame whose ACK is awaited, with its timeout timer.
	HasAwait      bool
	Await         PendingState
	AwaitTimerAt  sim.Time
	AwaitTimerSeq uint64

	// A scheduled transmission attempt and its backoff reconstruction
	// state.
	HasTxEvent   bool
	TxEventAt    sim.Time
	TxEventSeq   uint64
	TxEventBase  sim.Time
	TxEventSlots int

	// The delayed link-layer ACK owed after a received unicast frame.
	HasAck bool
	AckTo  packet.NodeID
	AckAt  sim.Time
	AckSeq uint64
}

// DataEnder returns the airtime-completion handler this MAC hands to
// Channel.Transmit for data and broadcast frames, so the checkpointing
// layer can resolve an active flight's completion handler back to its
// owning MAC.
func (m *MAC) DataEnder() phy.TxEnder { return (*dataEnd)(m) }

// noUnicast is the unicast record a MAC without unicast history reads
// as; never written.
var noUnicast unicast

// describePending translates one record through the caller's resolvers.
// A cancelled record's frame and observer may already be recycled by the
// layer that owns them and are never read again, so they are recorded as
// absent (the resolvers receive nil and return their none-reference).
func describePending(p *Pending, frameRef func(*packet.Frame) uint32, obsRef func(TxObserver) uint32) (PendingState, error) {
	st := PendingState{
		Started:    p.started,
		Cancelled:  p.cancelled,
		Retransmit: p.retransmit,
	}
	f, o := p.Frame, p.obs
	if p.cancelled {
		f, o = nil, nil
	} else if f == nil {
		return PendingState{}, fmt.Errorf("mac: live pending record without a frame")
	}
	if st.FrameRef = frameRef(f); st.FrameRef == BadRef {
		return PendingState{}, fmt.Errorf("mac: pending record carries an unknown frame")
	}
	if st.ObsRef = obsRef(o); st.ObsRef == BadRef {
		return PendingState{}, fmt.Errorf("mac: pending record has an unknown observer")
	}
	return st, nil
}

// Snapshot captures the MAC's state at a barrier. frameRef and obsRef
// translate frame pointers and transmission observers into
// caller-defined references (BadRef aborts). A MAC holding RTS/CTS
// state — a CTS await, a NAV reservation, or an enabled threshold —
// cannot be checkpointed.
func (m *MAC) Snapshot(frameRef func(*packet.Frame) uint32, obsRef func(TxObserver) uint32) (MACState, error) {
	u := m.uc
	if u == nil {
		u = &noUnicast // a MAC without unicast history reads as the zero record
	}
	switch {
	case m.w.rtsThreshold > 0:
		return MACState{}, fmt.Errorf("mac: checkpoint unsupported with RTS/CTS enabled")
	case u.navEvent != nil || u.awaitKind == awaitCTS:
		return MACState{}, fmt.Errorf("mac: checkpoint with RTS/CTS exchange in progress")
	case u.awaiting != nil && u.awaitTimer == nil:
		return MACState{}, fmt.Errorf("mac: awaited frame without a timeout timer")
	}
	st := MACState{
		Stats:            m.Stats(),
		CW:               int(m.cw),
		RNG:              m.rng.State(),
		Busy:             m.busy,
		IdleSince:        m.idleSince,
		BackoffRemaining: int(m.backoffRemaining),
		Retries:          int(u.retries),
	}
	for _, p := range m.queue[m.qhead:] {
		ps, err := describePending(p, frameRef, obsRef)
		if err != nil {
			return MACState{}, err
		}
		st.Queue = append(st.Queue, ps)
	}
	if m.transmitting {
		ps, err := describePending(m.inflight, frameRef, obsRef)
		if err != nil {
			return MACState{}, err
		}
		st.HasInflight = true
		st.Inflight = ps
	}
	if u.awaiting != nil {
		ps, err := describePending(u.awaiting, frameRef, obsRef)
		if err != nil {
			return MACState{}, err
		}
		st.HasAwait = true
		st.Await = ps
		st.AwaitTimerAt = u.awaitTimer.At()
		st.AwaitTimerSeq = u.awaitTimer.Seq()
	}
	if m.txEvent != nil {
		st.HasTxEvent = true
		st.TxEventAt = m.txEvent.At()
		st.TxEventSeq = m.txEvent.Seq()
		st.TxEventBase = m.txEventBase
		st.TxEventSlots = int(m.txEventSlots)
	}
	if u.ackTimer != nil {
		st.HasAck = true
		st.AckTo = u.ackTo
		st.AckAt = u.ackTimer.At()
		st.AckSeq = u.ackTimer.Seq()
	}
	return st, nil
}

// Restore rebuilds a freshly constructed (idle) MAC from a checkpointed
// state, re-arming its timers at their exact (at, seq) keys. frame and
// obs resolve the references Snapshot recorded; bound is invoked for
// every restored record with its observer reference, so the layer that
// holds Pending handles (the host's open rebroadcast decisions) can
// re-link them. The unicast record is allocated only when the state
// holds unicast history.
func (m *MAC) Restore(st MACState,
	frame func(uint32) *packet.Frame,
	obs func(uint32) TxObserver,
	bound func(ref uint32, p *Pending)) error {
	if len(m.queue) != 0 || m.transmitting || m.uc != nil ||
		m.txEvent != nil || m.stats.enqueued != 0 {
		return fmt.Errorf("mac: restore into a MAC with traffic history")
	}
	if err := m.checkContention(st); err != nil {
		return err
	}
	if err := checkCounters(st.Stats); err != nil {
		return err
	}
	s := st.Stats
	m.stats = counters{
		enqueued:  uint32(s.Enqueued),
		sent:      uint32(s.Sent),
		cancelled: uint32(s.Cancelled),
		stalls:    uint32(s.Stalls),
	}
	u := unicast{
		retries:  int32(st.Retries),
		acksSent: uint32(s.AcksSent),
		retried:  uint32(s.Retries),
		dropped:  uint32(s.Dropped),
	}
	if st.HasAwait || st.HasAck || u != (unicast{}) {
		m.uc = &u
	}
	m.cw = int32(st.CW)
	m.rng.SetState(st.RNG)
	m.busy = st.Busy
	m.idleSince = st.IdleSince
	m.backoffRemaining = int32(st.BackoffRemaining)
	revive := func(ps PendingState) *Pending {
		p := &Pending{
			Frame:      frame(ps.FrameRef),
			obs:        obs(ps.ObsRef),
			started:    ps.Started,
			cancelled:  ps.Cancelled,
			retransmit: ps.Retransmit,
		}
		if m.w.audit != nil {
			m.w.audit.AuditAcquire(m.w.sched.Now(), "mac.pending", p)
		}
		bound(ps.ObsRef, p)
		return p
	}
	for _, ps := range st.Queue {
		p := revive(ps)
		if p.Frame == nil && !p.cancelled {
			return fmt.Errorf("mac: restore queued frame without its payload")
		}
		m.queue = append(m.queue, p)
	}
	if st.HasInflight {
		m.inflight = revive(st.Inflight)
		m.transmitting = true
	}
	if st.HasAwait {
		m.uc.awaiting = revive(st.Await)
		m.uc.awaitKind = awaitACK
		ev, err := m.w.sched.RestoreRunner(-1, st.AwaitTimerAt, st.AwaitTimerSeq, (*respTimer)(m))
		if err != nil {
			return fmt.Errorf("mac: restore response timeout: %w", err)
		}
		m.uc.awaitTimer = ev
	}
	if st.HasTxEvent {
		ev, err := m.w.sched.RestoreRunner(-1, st.TxEventAt, st.TxEventSeq, m)
		if err != nil {
			return fmt.Errorf("mac: restore attempt timer: %w", err)
		}
		m.txEvent = ev
		m.txEventBase = st.TxEventBase
		m.txEventSlots = int32(st.TxEventSlots)
	}
	if st.HasAck {
		ev, err := m.w.sched.RestoreRunner(-1, st.AckAt, st.AckSeq, (*ackSend)(m))
		if err != nil {
			return fmt.Errorf("mac: restore delayed ACK: %w", err)
		}
		m.uc.ackTimer = ev
		m.uc.ackTo = st.AckTo
	}
	return nil
}

// checkContention refuses DCF state no run reaches: a contention window
// off the CWMin, 2·CWMin+1, …, CWMax ladder, a residual backoff or an
// attempt's slot count outside [-1, CW], or a retry count outside
// [0, RetryLimit]. Any of them would make a later draw or countdown
// misbehave (a CW below zero panics the first backoff draw).
func (m *MAC) checkContention(st MACState) error {
	t := m.w.t
	valid := false
	for cw := t.CWMin; ; cw = min((cw+1)*2-1, t.CWMax) {
		if cw == st.CW {
			valid = true
		}
		if cw >= t.CWMax {
			break
		}
	}
	switch {
	case !valid:
		return fmt.Errorf("mac: restore state has contention window %d off the %d..%d doubling ladder", st.CW, t.CWMin, t.CWMax)
	case st.BackoffRemaining < -1 || st.BackoffRemaining > st.CW:
		return fmt.Errorf("mac: restore state has residual backoff %d outside [-1, CW %d]", st.BackoffRemaining, st.CW)
	case st.HasTxEvent && (st.TxEventSlots < -1 || st.TxEventSlots > st.CW):
		return fmt.Errorf("mac: restore state has attempt slot count %d outside [-1, CW %d]", st.TxEventSlots, st.CW)
	case st.Retries < 0 || st.Retries > RetryLimit:
		return fmt.Errorf("mac: restore state has retry count %d outside [0, %d]", st.Retries, RetryLimit)
	}
	return nil
}

// checkCounters refuses a counter no MAC can hold: each is stored in 32
// bits, so a value outside [0, 2³²−1] would be truncated silently.
func checkCounters(s Stats) error {
	for _, c := range []struct {
		name string
		v    int
	}{
		{"Enqueued", s.Enqueued}, {"Sent", s.Sent}, {"Cancelled", s.Cancelled},
		{"AcksSent", s.AcksSent}, {"Retries", s.Retries}, {"Dropped", s.Dropped},
		{"Stalls", s.Stalls},
	} {
		if c.v < 0 || c.v > math.MaxUint32 {
			return fmt.Errorf("mac: restore state has counter Stats.%s %d outside [0, %d]", c.name, c.v, uint32(math.MaxUint32))
		}
	}
	return nil
}

// PendingEvents returns how many scheduler events the MAC currently has
// armed (attempt timer, response timeout, delayed ACK), for the
// checkpoint exhaustiveness cross-check.
func (m *MAC) PendingEvents() int {
	n := 0
	if m.txEvent != nil {
		n++
	}
	if u := m.uc; u != nil {
		if u.awaitTimer != nil {
			n++
		}
		if u.ackTimer != nil {
			n++
		}
	}
	return n
}
