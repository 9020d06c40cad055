package manet

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/nodeset"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// This file converts between a live Network and the passive checkpoint
// document in internal/snapshot. A checkpoint may only be taken at a
// barrier (the CheckpointHook instant): every pending event is then
// strictly in the future, the parallel lanes are folded, and each
// layer's Snapshot sees coherent state. Restore rebuilds a Network
// through the ordinary construction path (New), structurally drains the
// construction-time events, and overwrites the dynamic state layer by
// layer, re-inserting every armed event at its exact checkpointed
// (time, seq) key — so the restored run executes the identical event
// sequence, byte for byte, that the uninterrupted run would have.

// checkpointDigest renders every configuration field that influences
// the deterministic event sequence. Restore refuses a checkpoint whose
// digest differs from the target configuration's: resuming under a
// contradictory configuration would silently diverge instead of
// continuing the original run. The resolved engine and shard count are
// part of the digest — cross-engine resume is excluded by design (the
// shard-lane sequence namespaces are engine-specific).
//
// The v1 string is frozen: nogrid/nointerf/nodense/noladder stamped the
// four Disable* data-structure switches deleted in PR 16. Dropping the
// slots would orphan every checkpoint written before, so they stay as
// the constant false; a document stamped true names a configuration
// that can no longer be built and is refused like any contradiction.
func (n *Network) checkpointDigest() string {
	if n.digestCache != "" {
		return n.digestCache
	}
	c := n.cfg
	n.digestCache = fmt.Sprintf("v1 hosts=%d map=%d unit=%g radius=%g speed=%g static=%t mobility=%d pause=%d groups=%d spread=%g placement=%v "+
		"scheme=%q requests=%d arrival=%d hello=%d hi=%d dhi=%+v expiry=%d slots=%d warmup=%d drain=%d timing=%+v "+
		"engine=%d shards=%d nocoll=%t idealhello=%t nogrid=false nointerf=false nodense=false noladder=false "+
		"loss=%g capture=%g repair=%t window=%d retain=%t seed=%d",
		c.Hosts, c.MapUnits, c.UnitMeters, c.Radius, c.MaxSpeedKMH, c.Static, c.Mobility, c.WaypointPause, c.Groups, c.GroupSpread, c.Placement,
		c.Scheme.Name(), c.Requests, c.ArrivalSpread, c.HelloMode, c.HelloInterval, c.DHI, c.ExpiryIntervals, c.AssessmentSlots, c.Warmup, c.Drain, c.Timing,
		n.engine, n.shards, c.DisableCollisions, c.IdealHello,
		c.LossRate, c.CaptureRatio, c.Repair, c.RepairWindow, c.RetainRecords, c.Seed)
	return n.digestCache
}

// checkpointable reports why this network cannot be checkpointed, nil
// if it can. The unsupported features all carry state no layer snapshot
// covers (telemetry series, group/waypoint movers).
func (n *Network) checkpointable() error {
	c := n.cfg
	switch {
	case n.obs != nil:
		return fmt.Errorf("manet: checkpoint unsupported with telemetry attached")
	case c.Groups > 0:
		return fmt.Errorf("manet: checkpoint unsupported with group mobility")
	case c.Mobility == MobilityWaypoint && !c.Static:
		return fmt.Errorf("manet: checkpoint unsupported with waypoint mobility")
	}
	return nil
}

// describeFrame converts one live frame to its checkpoint form. Frames
// carrying RTS/CTS reservation state or an unknown payload abort.
func describeFrame(f *packet.Frame) (snapshot.Frame, error) {
	if f.NAV != 0 {
		return snapshot.Frame{}, fmt.Errorf("manet: checkpoint of a frame with a NAV reservation")
	}
	sf := snapshot.Frame{
		Kind:          uint8(f.Kind),
		Sender:        f.Sender,
		Dest:          f.Dest,
		Bytes:         int64(f.Bytes),
		Broadcast:     f.Broadcast,
		SenderPos:     [2]float64{f.SenderPos.X, f.SenderPos.Y},
		HelloInterval: f.HelloInterval,
	}
	sf.Neighbors = append(sf.Neighbors, f.Neighbors...)
	sf.Recent = append(sf.Recent, f.Recent...)
	switch p := f.Payload.(type) {
	case nil:
	case repairRequest:
		sf.PayloadKind = snapshot.PayloadRepairRequest
		sf.PayloadID = p.ID
	case repairResponse:
		sf.PayloadKind = snapshot.PayloadRepairResponse
		sf.PayloadID = p.ID
	default:
		return snapshot.Frame{}, fmt.Errorf("manet: checkpoint of a frame with unknown payload %T", p)
	}
	return sf, nil
}

// materializeFrame rebuilds a live frame from its checkpoint form.
func materializeFrame(sf *snapshot.Frame) (*packet.Frame, error) {
	f := &packet.Frame{
		Kind:          packet.Kind(sf.Kind),
		Sender:        sf.Sender,
		Dest:          sf.Dest,
		Bytes:         int(sf.Bytes),
		Broadcast:     sf.Broadcast,
		SenderPos:     geom.Point{X: sf.SenderPos[0], Y: sf.SenderPos[1]},
		HelloInterval: sf.HelloInterval,
	}
	f.Neighbors = append(f.Neighbors, sf.Neighbors...)
	f.Recent = append(f.Recent, sf.Recent...)
	switch sf.PayloadKind {
	case snapshot.PayloadNone:
	case snapshot.PayloadRepairRequest:
		f.Payload = repairRequest{ID: sf.PayloadID}
	case snapshot.PayloadRepairResponse:
		f.Payload = repairResponse{ID: sf.PayloadID}
	default:
		return nil, fmt.Errorf("manet: restore frame with unknown payload kind %d", sf.PayloadKind)
	}
	return f, nil
}

// resetCheckpoint truncates a checkpoint document for reuse, keeping
// the capacity of its top-level tables. Checkpoint and the speculative
// engine's micro-checkpoints pool one document this way: every snapshot
// refills the same backing arrays instead of reallocating them
// (snapshotInto only ever assigns or appends, so a truncated document is
// indistinguishable from a zero one).
func resetCheckpoint(ck *snapshot.Checkpoint) {
	ck.Digest = ""
	ck.Frames = ck.Frames[:0]
	ck.Observers = ck.Observers[:0]
	ck.Hosts = ck.Hosts[:0]
	recs, origs := ck.Net.Records[:0], ck.Net.Originations[:0]
	ck.Net = snapshot.Network{Records: recs, Originations: origs}
}

// snapshotInto captures the network's full deterministic state into a
// caller-owned (possibly pooled) document; ck must be zero or freshly
// resetCheckpoint-ed. It must be called at a barrier — in practice from
// CheckpointHook — where every pending event is strictly in the future
// and the shard lanes are folded.
func (n *Network) snapshotInto(ck *snapshot.Checkpoint) error {
	if err := n.checkpointable(); err != nil {
		return err
	}
	ck.Digest = n.checkpointDigest()

	// Identity tables, built lazily by the resolvers the layer snapshots
	// call: a frame (or observer) referenced from several places — a MAC
	// queue record and the rebroadcast decision that enqueued it, an
	// active flight and its sender's in-flight record — appears once and
	// is shared again on restore.
	var tableErr error
	frameIdx := make(map[*packet.Frame]uint32)
	frameRef := func(f *packet.Frame) uint32 {
		if f == nil {
			return 0
		}
		if ref, ok := frameIdx[f]; ok {
			return ref
		}
		sf, err := describeFrame(f)
		if err != nil {
			tableErr = err
			return phy.BadRef
		}
		ck.Frames = append(ck.Frames, sf)
		ref := uint32(len(ck.Frames))
		frameIdx[f] = ref
		return ref
	}
	obsIdx := make(map[mac.TxObserver]uint32)
	obsRef := func(o mac.TxObserver) uint32 {
		if o == nil {
			return 0
		}
		if ref, ok := obsIdx[o]; ok {
			return ref
		}
		var so snapshot.Observer
		switch v := o.(type) {
		case *helloTx:
			so = snapshot.Observer{Kind: snapshot.ObsHello, Host: int32(v.h.id)}
		case *pendingRebroadcast:
			so = snapshot.Observer{Kind: snapshot.ObsPending, Host: int32(v.h.id), Bid: v.bid}
		case *originTx:
			fr := frameRef(v.frame)
			if fr == phy.BadRef {
				return mac.BadRef
			}
			so = snapshot.Observer{Kind: snapshot.ObsOrigin, Host: int32(v.h.id), Bid: v.bid, FrameRef: fr}
		default:
			tableErr = fmt.Errorf("manet: checkpoint of unknown transmission observer %T", o)
			return mac.BadRef
		}
		ck.Observers = append(ck.Observers, so)
		ref := uint32(len(ck.Observers))
		obsIdx[o] = ref
		return ref
	}
	enderRef := func(sender int, e phy.TxEnder) uint32 {
		if e == nil {
			return 0
		}
		if sender >= 0 && sender < len(n.hosts) && e == n.hosts[sender].mac.DataEnder() {
			return uint32(sender) + 1
		}
		return phy.BadRef
	}

	ck.Sched = n.sched.SnapshotState()
	ch, err := n.ch.Snapshot(frameRef, enderRef)
	if err == nil {
		err = tableErr
	}
	if err != nil {
		return err
	}
	ck.Channel = ch

	armed := n.ch.PendingEvents()
	// Host slots are written in place: on a pooled document each slot
	// keeps the nested buffers of the previous snapshot (Dedup, Pending,
	// HelloFly, Recent, Nacked), so steady-state micro-checkpoints
	// re-fill capacity instead of reallocating it. On a fresh document
	// the buffers start nil and the appends below allocate exactly what
	// the old append-of-a-local did.
	if cap(ck.Hosts) >= len(n.hosts) {
		ck.Hosts = ck.Hosts[:len(n.hosts)]
	} else {
		ck.Hosts = make([]snapshot.Host, len(n.hosts))
	}
	for hi, h := range n.hosts {
		roamer, ok := h.mover.(*mobility.Roamer)
		if !ok {
			return fmt.Errorf("manet: checkpoint of unsupported mover %T", h.mover)
		}
		hs := &ck.Hosts[hi]
		*hs = snapshot.Host{
			Dedup:    h.dedup.SnapshotAppend(hs.Dedup[:0]),
			RNG:      h.rng.State(),
			Mover:    roamer.Snapshot(),
			Table:    h.table.Snapshot(),
			PrFree:   int64(len(h.prFree)),
			Pending:  hs.Pending[:0],
			HelloFly: hs.HelloFly[:0],
			Recent:   hs.Recent[:0],
			Nacked:   hs.Nacked[:0],
		}
		if hs.Mover.HasTurn {
			armed++
		}
		armed += h.table.PendingEvents()
		for _, p := range h.livePending {
			js, err := scheme.SnapshotJudge(p.judge)
			if err != nil {
				return err
			}
			pd := snapshot.PendingDecision{Bid: p.bid, Judge: js, Started: p.started}
			if p.assess != nil {
				pd.HasAssess = true
				pd.AssessAt = p.assess.At()
				pd.AssessSeq = p.assess.Seq()
				armed++
			}
			if p.frame != nil {
				if pd.FrameRef = frameRef(p.frame); pd.FrameRef == phy.BadRef {
					return tableErr
				}
			}
			hs.Pending = append(hs.Pending, pd)
		}
		st, err := h.mac.Snapshot(frameRef, obsRef)
		if err == nil {
			err = tableErr
		}
		if err != nil {
			return fmt.Errorf("manet: checkpoint %v: %w", h.id, err)
		}
		hs.MAC = st
		armed += h.mac.PendingEvents()
		for _, f := range h.helloFly {
			ref := frameRef(f)
			if ref == phy.BadRef {
				return tableErr
			}
			hs.HelloFly = append(hs.HelloFly, ref)
		}
		if h.helloTimer != nil {
			hs.HasHelloTimer = true
			hs.HelloAt = h.helloTimer.At()
			hs.HelloSeq = h.helloTimer.Seq()
			armed++
		}
		for _, e := range h.recent {
			hs.Recent = append(hs.Recent, snapshot.RecentBroadcast{ID: e.id, Heard: e.heard})
		}
		for bid := range h.nacked {
			hs.Nacked = append(hs.Nacked, bid)
		}
		slices.SortFunc(hs.Nacked, packet.CompareBroadcastID)
	}

	ck.Net = snapshot.Network{
		Seq:              n.seq,
		EndTime:          n.endTime,
		HelloSent:        int64(n.helloSent),
		RepairsRequested: int64(n.repairsRequested),
		RepairsDelivered: int64(n.repairsDelivered),
		RecBase:          n.recBase,
		Stream:           n.stream.Snapshot(),
		SetPool:          int64(len(n.setPool)),
		FramePool:        int64(len(n.framePool)),
		HelloPool:        int64(len(n.helloPool)),
	}
	for i := range n.recs {
		rec := &n.recs[i]
		ck.Net.Records = append(ck.Net.Records, snapshot.Record{
			ID:           rec.ID,
			Start:        rec.Start,
			Reachable:    int64(rec.Reachable),
			Received:     int64(rec.Received),
			Transmitted:  int64(rec.Transmitted),
			LastActivity: rec.LastActivity(),
			Open:         n.recOpen[i],
		})
	}
	for i := range n.originations {
		o := &n.originations[i]
		if o.ev == nil {
			continue
		}
		ck.Net.Originations = append(ck.Net.Originations, snapshot.Origination{
			Src: o.src, At: o.ev.At(), Seq: o.ev.Seq(),
		})
		armed++
	}

	// Exhaustiveness cross-check: every pending scheduler event must be
	// owned by exactly one serialized descriptor, or the restored run
	// would silently drop (or duplicate) an event.
	if pending := n.sched.Pending(); armed != pending {
		return fmt.Errorf("manet: checkpoint covers %d armed events, scheduler holds %d", armed, pending)
	}
	return nil
}

// Checkpoint writes the network's checkpoint document to w in one Write
// (see snapshotInto for when it may be taken). The document and its
// encoding are built in buffers the network keeps for the next call, so
// w must not retain the slice it is handed.
func (n *Network) Checkpoint(w io.Writer) error {
	ck := &n.ckDoc
	resetCheckpoint(ck)
	if err := n.snapshotInto(ck); err != nil {
		return err
	}
	n.ckBuf = snapshot.Append(n.ckBuf[:0], ck)
	_, err := w.Write(n.ckBuf)
	return err
}

// RestoreNetwork reads one checkpoint from r and rebuilds a Network
// that resumes the checkpointed run: its RunContext continues the exact
// event sequence — and produces the byte-identical Summary — of the run
// the checkpoint was taken from. cfg must describe the original run;
// a contradictory configuration (anything that would change the event
// sequence, including engine/shard selection) is an error.
func RestoreNetwork(r io.Reader, cfg Config) (*Network, error) {
	ck, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	n, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := n.restore(ck); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// RestoreCheckpoint rebuilds a Network from an already-decoded document
// (fork-for-what-if restores the same document twice).
func RestoreCheckpoint(ck *snapshot.Checkpoint, cfg Config) (*Network, error) {
	n, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := n.restore(ck); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

func (n *Network) restore(ck *snapshot.Checkpoint) error {
	if err := n.checkpointable(); err != nil {
		return err
	}
	if digest := n.checkpointDigest(); digest != ck.Digest {
		return fmt.Errorf("manet: checkpoint was taken under a different configuration\n  checkpoint: %s\n  requested:  %s", ck.Digest, digest)
	}
	if len(ck.Hosts) != len(n.hosts) {
		return fmt.Errorf("manet: checkpoint holds %d hosts, network has %d", len(ck.Hosts), len(n.hosts))
	}

	// Construction armed the movers' first turn events; empty the queue
	// structurally (the stale handles the movers still hold stay
	// cancelled — restored events are allocated fresh, never from the
	// pool, so no handle is reused before its owner is overwritten) and
	// rewind the scheduler to the checkpointed counters.
	n.sched.Drain()
	if err := n.sched.RestoreState(ck.Sched); err != nil {
		return err
	}
	now := n.sched.Now()

	// Materialize the frame identity table. Pool-managed frames
	// (broadcast data and HELLO beacons) re-enter the auditor's frame
	// accounting; repair unicasts and link-layer ACKs were never pooled.
	frames := make([]*packet.Frame, len(ck.Frames))
	for i := range ck.Frames {
		f, err := materializeFrame(&ck.Frames[i])
		if err != nil {
			return err
		}
		if n.audit != nil && (f.Kind == packet.KindBroadcast || f.Kind == packet.KindHello) {
			n.audit.AuditAcquire(now, "frame", f)
		}
		frames[i] = f
	}
	frameAt := func(ref uint32) *packet.Frame {
		if ref == 0 || int(ref) > len(frames) {
			return nil
		}
		return frames[ref-1]
	}
	var obsErr error
	obsCache := make([]mac.TxObserver, len(ck.Observers))
	obsAt := func(ref uint32) mac.TxObserver {
		if ref == 0 {
			return nil
		}
		if int(ref) > len(ck.Observers) {
			obsErr = fmt.Errorf("manet: restore observer reference %d outside table of %d", ref, len(ck.Observers))
			return nil
		}
		if o := obsCache[ref-1]; o != nil {
			return o
		}
		so := &ck.Observers[ref-1]
		if int(so.Host) < 0 || int(so.Host) >= len(n.hosts) {
			obsErr = fmt.Errorf("manet: restore observer for unknown host %d", so.Host)
			return nil
		}
		h := n.hosts[so.Host]
		var o mac.TxObserver
		switch so.Kind {
		case snapshot.ObsHello:
			o = &h.helloTx
		case snapshot.ObsPending:
			p := h.lookupPending(so.Bid)
			if p == nil {
				obsErr = fmt.Errorf("manet: restore observer for unknown pending decision %v at %v", so.Bid, h.id)
				return nil
			}
			o = p
		case snapshot.ObsOrigin:
			f := frameAt(so.FrameRef)
			if f == nil {
				obsErr = fmt.Errorf("manet: restore origination observer without its frame")
				return nil
			}
			o = &originTx{h: h, bid: so.Bid, frame: f}
		default:
			obsErr = fmt.Errorf("manet: restore observer of unknown kind %d", so.Kind)
			return nil
		}
		obsCache[ref-1] = o
		return o
	}
	bound := func(ref uint32, p *mac.Pending) {
		if ref == 0 || int(ref) > len(ck.Observers) {
			return
		}
		so := &ck.Observers[ref-1]
		if so.Kind != snapshot.ObsPending {
			return
		}
		if pr := n.hosts[so.Host].lookupPending(so.Bid); pr != nil {
			pr.mp = p
		}
	}
	enderAt := func(ref uint32) phy.TxEnder {
		if ref == 0 || int(ref) > len(n.hosts) {
			return nil
		}
		return n.hosts[ref-1].mac.DataEnder()
	}

	if err := n.ch.Restore(ck.Channel, frameAt, enderAt); err != nil {
		return err
	}
	if n.audit != nil {
		// The auditor joined mid-run: seed its packet-conservation
		// counters with the traffic the checkpoint already settled, plus
		// the in-flight copies whose outcomes it will witness without
		// having seen their AuditTransmit.
		inflight := 0
		for _, ts := range ck.Channel.Active {
			inflight += len(ts.Receivers)
		}
		st := ck.Channel.Stats
		n.audit.ResumeConservation(st.Transmissions, st.Deliveries, st.Collisions, st.Lost, inflight)
	}

	for i, h := range n.hosts {
		hs := &ck.Hosts[i]
		if err := h.dedup.Restore(hs.Dedup); err != nil {
			return fmt.Errorf("manet: restore %v: %w", h.id, err)
		}
		h.rng.SetState(hs.RNG)
		roamer, ok := h.mover.(*mobility.Roamer)
		if !ok {
			return fmt.Errorf("manet: restore into unsupported mover %T", h.mover)
		}
		if err := roamer.Restore(hs.Mover); err != nil {
			return fmt.Errorf("manet: restore %v: %w", h.id, err)
		}
		if err := h.table.Restore(hs.Table); err != nil {
			return fmt.Errorf("manet: restore %v: %w", h.id, err)
		}
		for _, e := range hs.Recent {
			h.recent = append(h.recent, recentEntry{id: e.ID, heard: e.Heard})
		}
		if len(hs.Nacked) > 0 {
			h.nacked = make(map[packet.BroadcastID]bool, len(hs.Nacked))
			for _, bid := range hs.Nacked {
				h.nacked[bid] = true
			}
		}
		// Open rebroadcast decisions come back before the MAC: its
		// observer resolver finds them through lookupPending, and the
		// bound callback re-links each decision's MAC handle.
		for _, pd := range hs.Pending {
			judge, err := scheme.RestoreJudge(pd.Judge, h)
			if err != nil {
				return fmt.Errorf("manet: restore %v: %w", h.id, err)
			}
			p := &pendingRebroadcast{h: h, bid: pd.Bid, judge: judge, started: pd.Started}
			if pd.FrameRef != 0 {
				if p.frame = frameAt(pd.FrameRef); p.frame == nil {
					return fmt.Errorf("manet: restore %v: pending decision %v without its frame", h.id, pd.Bid)
				}
			}
			if n.audit != nil {
				n.audit.AuditAcquire(now, "manet.pending", p)
			}
			h.trackPending(p)
			if pd.HasAssess {
				ev, err := n.sched.RestoreRunner(-1, pd.AssessAt, pd.AssessSeq, p)
				if err != nil {
					return fmt.Errorf("manet: restore %v: assessment for %v: %w", h.id, pd.Bid, err)
				}
				p.assess = ev
			}
		}
		if err := h.mac.Restore(hs.MAC, frameAt, obsAt, bound); err != nil {
			return fmt.Errorf("manet: restore %v: %w", h.id, err)
		}
		if obsErr != nil {
			return obsErr
		}
		if hs.HasHelloTimer {
			ev, err := n.sched.RestoreRunner(-1, hs.HelloAt, hs.HelloSeq, &h.helloTx)
			if err != nil {
				return fmt.Errorf("manet: restore %v: hello timer: %w", h.id, err)
			}
			h.helloTimer = ev
		}
		for _, ref := range hs.HelloFly {
			f := frameAt(ref)
			if f == nil {
				return fmt.Errorf("manet: restore %v: in-flight HELLO without its frame", h.id)
			}
			h.helloFly = append(h.helloFly, f)
		}
		if hs.PrFree < 0 {
			return fmt.Errorf("manet: restore %v: negative decision-pool depth %d", h.id, hs.PrFree)
		}
		for j := int64(0); j < hs.PrFree; j++ {
			h.prFree = append(h.prFree, &pendingRebroadcast{h: h})
		}
	}

	// Network-level state: counters, the record arena with its
	// open-reference counts, the streaming aggregates' fold history, the
	// object-pool depths, and the not-yet-fired workload requests.
	n.seq = ck.Net.Seq
	n.endTime = ck.Net.EndTime
	n.helloSent = int(ck.Net.HelloSent)
	n.repairsRequested = int(ck.Net.RepairsRequested)
	n.repairsDelivered = int(ck.Net.RepairsDelivered)
	n.recBase = ck.Net.RecBase
	for i := range ck.Net.Records {
		r := &ck.Net.Records[i]
		rec := metrics.MakeBroadcastRecord(r.ID, r.Start, int(r.Reachable))
		rec.Received = int(r.Received)
		rec.Transmitted = int(r.Transmitted)
		rec.RestoreActivity(r.LastActivity)
		n.recs = append(n.recs, rec)
		n.recOpen = append(n.recOpen, r.Open)
	}
	n.stream.Restore(ck.Net.Stream)
	for _, pool := range []struct {
		name  string
		depth int64
	}{{"set", ck.Net.SetPool}, {"frame", ck.Net.FramePool}, {"hello", ck.Net.HelloPool}} {
		if pool.depth < 0 {
			return fmt.Errorf("manet: restore negative %s-pool depth %d", pool.name, pool.depth)
		}
	}
	for i := int64(0); i < ck.Net.SetPool; i++ {
		n.setPool = append(n.setPool, nodeset.New(len(n.hosts)))
	}
	for i := int64(0); i < ck.Net.FramePool; i++ {
		n.framePool = append(n.framePool, &packet.Frame{})
	}
	for i := int64(0); i < ck.Net.HelloPool; i++ {
		n.helloPool = append(n.helloPool, &packet.Frame{})
	}
	n.originations = make([]originationEvent, len(ck.Net.Originations))
	for i := range ck.Net.Originations {
		so := &ck.Net.Originations[i]
		if int(so.Src) < 0 || int(so.Src) >= len(n.hosts) {
			return fmt.Errorf("manet: restore origination from unknown host %d", so.Src)
		}
		o := &n.originations[i]
		o.n = n
		o.src = so.Src
		ev, err := n.sched.RestoreRunner(-1, so.At, so.Seq, o)
		if err != nil {
			return fmt.Errorf("manet: restore origination: %w", err)
		}
		o.ev = ev
	}

	// The inverse of the checkpoint's exhaustiveness cross-check: every
	// descriptor must have re-armed exactly one event.
	armed := n.ch.PendingEvents() + len(n.originations)
	for i, h := range n.hosts {
		hs := &ck.Hosts[i]
		armed += h.mac.PendingEvents() + h.table.PendingEvents()
		if hs.Mover.HasTurn {
			armed++
		}
		if hs.HasHelloTimer {
			armed++
		}
		for _, pd := range hs.Pending {
			if pd.HasAssess {
				armed++
			}
		}
	}
	if pending := n.sched.Pending(); armed != pending {
		return fmt.Errorf("manet: restore re-armed %d events, scheduler holds %d", armed, pending)
	}
	n.resumed = true
	return nil
}

// DivergeSeed re-seeds every host's private random stream from salt,
// forking the restored run onto a different future: assessment delays,
// HELLO phases, and per-scheme draws all diverge while the restored
// past (records, tables, in-flight traffic) is kept. Call between
// RestoreNetwork and RunContext on a forked what-if copy.
func (n *Network) DivergeSeed(salt uint64) {
	root := sim.NewRNG(salt)
	for i, h := range n.hosts {
		h.rng.SetState(root.Fork(uint64(i)).State())
	}
}
