package phy

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/nodeset"
	"repro/internal/packet"
	"repro/internal/sim"
)

// BadRef is the sentinel a Snapshot resolver returns for an object it
// does not recognize; Snapshot aborts with an error instead of writing
// a dangling reference into the state.
const BadRef = ^uint32(0)

// TxState is one in-flight transmission in a ChannelState. The frame and
// completion handler are recorded as caller-defined references (the
// channel does not own frame identity — the checkpointing layer keeps
// the table of live frames and of per-host completion handlers).
// Receivers are kept in discovery order: delivery callbacks and the
// per-copy loss draws at airtime end consume them in that order.
type TxState struct {
	FrameRef  uint32
	EnderRef  uint32
	Sender    int32
	SenderPos geom.Point
	End       sim.Time
	EndSeq    uint64
	Receivers []int32
	Garbled   []packet.NodeID // subset of Receivers whose copy is destroyed
}

// ChannelState is the channel's checkpointed dynamic state: delivery
// counters, the loss stream, the airtime bound feeding the interference
// window, and every flight on the air. The spatial grid, its position
// snapshot, the static-neighbour memo, the interference buckets and the
// transmission-record pool are pure caches rebuilt on demand and are not
// serialized.
type ChannelState struct {
	Stats   Stats
	HasLoss bool
	LossRNG [4]uint64
	MaxAir  sim.Duration
	Active  []TxState
}

// Snapshot captures the channel state at a barrier. frameRef and
// enderRef translate the frame pointer and completion handler of each
// active flight into caller-defined references (returning BadRef aborts
// the snapshot); enderRef also receives the sending radio so the caller
// can verify the handler belongs to that radio's MAC.
func (c *Channel) Snapshot(frameRef func(*packet.Frame) uint32, enderRef func(sender int, e TxEnder) uint32) (ChannelState, error) {
	if c.obsBusy {
		return ChannelState{}, fmt.Errorf("phy: checkpoint unsupported with the channel-load observer attached")
	}
	st := ChannelState{Stats: c.stats, MaxAir: c.maxAir}
	if c.lossRNG != nil {
		st.HasLoss = true
		st.LossRNG = c.lossRNG.State()
	}
	for _, tx := range c.active {
		fr := frameRef(tx.frame)
		if fr == BadRef {
			return ChannelState{}, fmt.Errorf("phy: active transmission from radio %d carries an unknown frame", tx.sender)
		}
		er := enderRef(tx.sender, tx.onDone)
		if er == BadRef {
			return ChannelState{}, fmt.Errorf("phy: active transmission from radio %d has an unknown completion handler", tx.sender)
		}
		ts := TxState{
			FrameRef:  fr,
			EnderRef:  er,
			Sender:    int32(tx.sender),
			SenderPos: tx.senderPos,
			End:       tx.end,
			EndSeq:    tx.endEvent.Seq(),
			Receivers: make([]int32, 0, len(tx.receivers)),
			Garbled:   tx.garbledSet.AppendIDs(nil),
		}
		for _, r := range tx.receivers {
			ts.Receivers = append(ts.Receivers, int32(r))
		}
		st.Active = append(st.Active, ts)
	}
	return st, nil
}

// Restore rebuilds a freshly constructed (idle) channel from a
// checkpointed state: counters, loss stream, and the active
// flights with their end events re-armed at their exact (at, seq) keys.
// Carrier state (busyCount, transmitting) is recomputed directly from
// the restored flights without invoking the CarrierBusy listeners — the
// listeners' own state is restored separately by their layer. The
// spatial caches stay invalid and rebuild on the first query.
func (c *Channel) Restore(st ChannelState, frame func(uint32) *packet.Frame, ender func(uint32) TxEnder) error {
	if len(c.active) != 0 || c.stats.Transmissions != 0 {
		return fmt.Errorf("phy: restore into a channel with traffic history")
	}
	if st.HasLoss != (c.lossRNG != nil) {
		return fmt.Errorf("phy: restore loss-model state mismatch (checkpoint %v, channel %v)",
			st.HasLoss, c.lossRNG != nil)
	}
	c.stats = st.Stats
	if st.HasLoss {
		c.lossRNG.SetState(st.LossRNG)
	}
	c.maxAir = st.MaxAir
	for _, ts := range st.Active {
		if int(ts.Sender) < 0 || int(ts.Sender) >= len(c.positions) {
			return fmt.Errorf("phy: restore transmission from unknown radio %d", ts.Sender)
		}
		if c.transmitting[ts.Sender] {
			return fmt.Errorf("phy: restore radio %d transmitting twice", ts.Sender)
		}
		f := frame(ts.FrameRef)
		if f == nil {
			return fmt.Errorf("phy: restore transmission from radio %d without its frame", ts.Sender)
		}
		tx := &transmission{
			cell:      -1,
			lane:      -1,
			ch:        c,
			frame:     f,
			sender:    int(ts.Sender),
			senderPos: ts.SenderPos,
			end:       ts.End,
			onDone:    ender(ts.EnderRef),
		}
		tx.recvSet = nodeset.New(len(c.positions))
		tx.garbledSet = nodeset.New(len(c.positions))
		for _, r := range ts.Receivers {
			if int(r) < 0 || int(r) >= len(c.positions) || int(r) == tx.sender {
				return fmt.Errorf("phy: restore transmission with invalid receiver %d", r)
			}
			if !tx.recvSet.Add(packet.NodeID(r)) {
				return fmt.Errorf("phy: restore transmission with duplicate receiver %d", r)
			}
			tx.receivers = append(tx.receivers, int(r))
		}
		for _, g := range ts.Garbled {
			if !tx.recvSet.Contains(g) {
				return fmt.Errorf("phy: restore transmission garbles non-receiver %d", g)
			}
			tx.garbledSet.Add(g)
		}
		ev, err := c.sched.RestoreRunner(-1, ts.End, ts.EndSeq, tx)
		if err != nil {
			return fmt.Errorf("phy: restore end event for radio %d: %w", ts.Sender, err)
		}
		tx.endEvent = ev
		c.active = append(c.active, tx)
		c.transmitting[tx.sender] = true
		c.busyCount[tx.sender]++
		for _, r := range tx.receivers {
			c.busyCount[r]++
		}
		if c.audit != nil {
			c.audit.AuditAcquire(c.sched.Now(), "phy.tx", tx)
		}
	}
	return nil
}

// PendingEvents returns how many scheduler events the channel currently
// has armed (one end-of-airtime event per active flight), for the
// checkpoint exhaustiveness cross-check.
func (c *Channel) PendingEvents() int { return len(c.active) }
