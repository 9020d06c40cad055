package manet

import (
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/neighbor"
	"repro/internal/nodeset"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// host is one mobile node: radio + MAC + mobility + neighbor table +
// per-packet rebroadcast decisions.
type host struct {
	id packet.NodeID
	// lane is the speculative band owning this host, -1 outside the
	// speculative engine. Assigned once per static world (a static host
	// never leaves its band); all of the host's scheduling, record
	// notes, and pool traffic route through it while a window is open.
	lane int32

	net   *Network
	mac   *mac.MAC
	mover mobility.Mover
	// hello is nil in a HELLO-off world: no scheme that reads neighbor
	// knowledge runs without HELLO, and neither does repair
	// (Config.Validate), so none of its state is built.
	hello *helloState
	rng   *sim.RNG // assessment delays and hello phase

	// Broadcasts whose rebroadcast decision is still open, in an
	// unordered slice with each record carrying its own index (live) for
	// O(1) swap-remove — the open set per host is a handful of entries,
	// so lookup is a short linear scan and a map's hashing and bucket
	// storage would be pure overhead.
	livePending []*pendingRebroadcast
}

// helloState is the per-host state only HELLO worlds build, in a slab
// of its own (buildHosts): the neighbor table, the beaconing state and
// the repair extension's, which runs on HELLO.
type helloState struct {
	table neighbor.Table

	// timer is the armed next-HELLO event, nil once beaconing stops; the
	// host fires it, and observes its beacons, through its helloTx view.
	// fly is the FIFO of beacons currently on the air. HELLO frames are
	// broadcast, so the MAC completes them in enqueue order — the front
	// of fly is always the frame whose TxDone is firing.
	timer *sim.Event
	fly   []*packet.Frame

	// Reliable-broadcast repair state (Config.Repair): recently received
	// broadcasts to advertise, and ids NACKed but not yet repaired. The
	// map is allocated on first NACK and entries are deleted once the
	// repair arrives, so it stays bounded by still-missing packets.
	recent []recentEntry
	nacked map[packet.BroadcastID]bool
}

// pendingRebroadcast is the paper's per-packet waiting state: created at
// first reception (S1), it survives the random assessment delay (S2) and
// the MAC queueing, and is resolved either by the transmission starting
// (S3) or by the scheme inhibiting it (S5). The three callbacks are the
// record's own methods and read its mutable fields, so records cycling
// through the network's pool never allocate closures. The judge sits in
// the record by value: a first reception allocates none.
type pendingRebroadcast struct {
	h        *host
	bid      packet.BroadcastID
	judge    scheme.Judge
	assess   *sim.Event    // scheduled MAC submission, nil once submitted
	mp       *mac.Pending  // MAC handle once submitted
	frame    *packet.Frame // the enqueued rebroadcast frame
	payload  any           // what the rebroadcast carries (Protocol.Heard)
	started  bool          // transmission began; decision locked
	resolved bool          // inhibited or completed
	live     int32         // index in host.livePending
}

// RunEvent fires the assessment-delay timer (sim.Runner): the pending
// record itself is the timer target, so arming it never allocates.
func (p *pendingRebroadcast) RunEvent() { p.h.submit(p) }

// TxStarted implements mac.TxObserver: the rebroadcast's transmission
// actually starts (S3) and the decision is locked.
func (p *pendingRebroadcast) TxStarted() {
	p.started = true
	p.h.net.noteTransmitted(p.bid, p.h)
	p.h.net.trace(obs.Transmit, p.bid, p.h.id)
}

// TxDone implements mac.TxObserver: the transmission ended.
func (p *pendingRebroadcast) TxDone() { p.h.complete(p) }

// newPendingRebroadcast takes a waiting-state record off the pool of
// the host's lane (or allocates one).
func (h *host) newPendingRebroadcast(bid packet.BroadcastID, judge scheme.Judge, payload any) *pendingRebroadcast {
	p, ok := pop(&h.net.poolsOf(h.lane).prs)
	if !ok {
		p = new(pendingRebroadcast)
	}
	*p = pendingRebroadcast{h: h, bid: bid, judge: judge, payload: payload}
	if h.net.audit != nil {
		h.net.audit.AuditAcquire(h.net.sched.Now(), "manet.pending", p)
	}
	return p
}

// recyclePendingRebroadcast returns a resolved record to the pool,
// cleared so the pool holds no judge, event, frame or payload. Nothing
// may hold the record afterwards: its event was cancelled or fired, and
// the MAC has dropped (or is about to drop) its callbacks.
func (h *host) recyclePendingRebroadcast(p *pendingRebroadcast) {
	if h.net.audit != nil {
		h.net.audit.AuditRelease(h.net.sched.Now(), "manet.pending", p)
	}
	*p = pendingRebroadcast{}
	pl := h.net.poolsOf(h.lane)
	pl.prs = append(pl.prs, p)
}

// trackPending registers an open rebroadcast decision.
func (h *host) trackPending(p *pendingRebroadcast) {
	p.live = int32(len(h.livePending))
	h.livePending = append(h.livePending, p)
}

// lookupPending finds the open decision for bid, nil if none.
func (h *host) lookupPending(bid packet.BroadcastID) *pendingRebroadcast {
	for _, p := range h.livePending {
		if p.bid == bid {
			return p
		}
	}
	return nil
}

// untrackPending removes a resolved decision (O(1) swap-remove).
func (h *host) untrackPending(p *pendingRebroadcast) {
	l := len(h.livePending) - 1
	last := h.livePending[l]
	h.livePending[p.live] = last
	last.live = p.live
	h.livePending[l] = nil
	h.livePending = h.livePending[:l]
}

// pendingCount returns the number of open rebroadcast decisions.
func (h *host) pendingCount() int { return len(h.livePending) }

var (
	_ scheme.HostView       = (*host)(nil)
	_ scheme.NodeSetSource  = (*host)(nil)
	_ scheme.CoverageSource = (*host)(nil)
)

// ID implements scheme.HostView.
func (h *host) ID() packet.NodeID { return h.id }

// Position implements scheme.HostView.
func (h *host) Position() geom.Point { return h.mover.Position() }

// Radius implements scheme.HostView.
func (h *host) Radius() float64 { return h.net.ch.Radius() }

// NeighborCount implements scheme.HostView.
func (h *host) NeighborCount() int { return h.hello.table.Count() }

// Neighbors implements scheme.HostView.
func (h *host) Neighbors() []packet.NodeID { return h.hello.table.Neighbors() }

// TwoHop implements scheme.HostView.
func (h *host) TwoHop(n packet.NodeID) []packet.NodeID {
	return h.hello.table.TwoHop(n)
}

// NeighborNodeSet implements scheme.NodeSetSource.
func (h *host) NeighborNodeSet() *nodeset.Set { return h.hello.table.NeighborSet() }

// AcquireNodeSet implements scheme.NodeSetSource.
func (h *host) AcquireNodeSet() *nodeset.Set { return h.net.acquireSet(h.lane) }

// ReleaseNodeSet implements scheme.NodeSetSource.
func (h *host) ReleaseNodeSet(s *nodeset.Set) { h.net.releaseSet(s, h.lane) }

// AcquireCoverage implements scheme.CoverageSource.
func (h *host) AcquireCoverage() *geom.Coverage { return h.net.acquireCoverage(h.lane) }

// ReleaseCoverage implements scheme.CoverageSource.
func (h *host) ReleaseCoverage(c *geom.Coverage) { h.net.releaseCoverage(c, h.lane) }

// ReceiveGarbled implements mac.Upper: a collided broadcast
// is worth a trace event (the metrics layer counts collisions at the
// channel, so nothing else happens here).
func (h *host) ReceiveGarbled(f *packet.Frame) {
	if f.Kind == packet.KindBroadcast {
		h.net.trace(obs.Garbled, f.Broadcast, h.id)
	}
}

// helloTx observes one host's HELLO transmissions (mac.TxObserver) and
// fires its HELLO timer (sim.Runner). It is a view of the host itself,
// so neither the recurring timer nor the per-beacon observer allocates
// or takes a byte of the host record.
type helloTx host

// RunEvent fires the HELLO timer.
func (o *helloTx) RunEvent() {
	h := (*host)(o)
	h.hello.timer = nil
	h.sendHello()
}

// TxStarted implements mac.TxObserver: the beacon is on the air.
func (o *helloTx) TxStarted() { o.net.helloSent++ }

// TxDone implements mac.TxObserver: the beacon's airtime ended; retire
// the oldest in-flight HELLO frame.
func (o *helloTx) TxDone() {
	hs := o.hello
	f := hs.fly[0]
	rest := copy(hs.fly, hs.fly[1:])
	hs.fly[rest] = nil
	hs.fly = hs.fly[:rest]
	o.net.recycleHelloFrame(f)
}

// ReceiveFrame implements mac.Upper: an intact frame delivered
// by the MAC.
func (h *host) ReceiveFrame(f *packet.Frame) {
	switch f.Kind {
	case packet.KindHello:
		h.hello.table.OnHello(f.Sender, f.Neighbors, f.HelloInterval)
		if h.net.cfg.Repair {
			h.onHelloRecent(f.Sender, f.Recent)
		}
	case packet.KindBroadcast:
		h.onBroadcast(f)
	case packet.KindData:
		if h.net.cfg.Repair {
			h.onRepairFrame(f)
		}
		if pr := h.net.Protocol; pr != nil && f.Dest == h.id {
			pr.ReceiveData(h.id, f)
		}
	}
}

// onBroadcast implements the paper's per-host algorithm.
func (h *host) onBroadcast(f *packet.Frame) {
	bid := f.Broadcast
	rx := scheme.Reception{From: f.Sender, SenderPos: f.SenderPos, U: h.rng.Float64()}

	if h.net.dedup.observe(h.id, bid.Seq) {
		// S1: first reception.
		h.net.noteReceived(bid, h)
		h.noteRecent(bid)
		var payload any
		if pr := h.net.Protocol; pr != nil {
			var relay bool
			if payload, relay = pr.Heard(h.id, f, true); !relay {
				return
			}
		}
		judge := h.net.cfg.Scheme.NewJudge(h, rx)
		if judge.Initial() == scheme.Inhibit {
			scheme.ReleaseJudge(judge)
			if h.net.obs != nil {
				h.net.inhibitInitial++
			}
			h.net.noteActivity(bid, h)
			h.net.trace(obs.Inhibit, bid, h.id)
			return
		}
		if h.net.obs != nil {
			h.net.proceedInitial++
		}
		p := h.newPendingRebroadcast(bid, judge, payload)
		h.trackPending(p)
		h.net.openInc(bid, h) // record stays open until this decision resolves
		// S2: random assessment delay of 0..AssessmentSlots slots before
		// submitting the rebroadcast to the MAC.
		slots := h.rng.IntN(h.net.cfg.AssessmentSlots + 1)
		delay := sim.Duration(slots) * h.net.ch.Timing().SlotTime
		p.assess = h.net.sched.LaneAfterRunner(int(h.lane), delay, p)
		return
	}

	// Duplicate reception (S4) while a rebroadcast may still be pending.
	h.net.trace(obs.Duplicate, bid, h.id)
	if pr := h.net.Protocol; pr != nil {
		pr.Heard(h.id, f, false)
	}
	p := h.lookupPending(bid)
	if p == nil || p.started || p.resolved {
		return
	}
	if p.judge.OnDuplicate(rx) == scheme.Inhibit {
		if h.net.obs != nil {
			h.net.inhibitDup++
		}
		h.inhibit(p)
	} else if h.net.obs != nil {
		h.net.proceedDup++
	}
}

// submit hands the rebroadcast to the MAC after the assessment delay.
func (h *host) submit(p *pendingRebroadcast) {
	if h.net.audit != nil {
		h.net.audit.AuditUse(h.net.sched.Now(), "manet.pending", p)
	}
	p.assess = nil
	if p.resolved {
		return
	}
	p.frame = h.net.newBroadcastFrame(p.bid, p.payload, h.id, h.Position(), h.lane)
	p.mp = h.mac.Enqueue(p.frame, p)
}

// complete resolves the rebroadcast when its transmission ends (the MAC
// OnDone of the frame submit enqueued).
func (h *host) complete(p *pendingRebroadcast) {
	if h.net.audit != nil {
		h.net.audit.AuditUse(h.net.sched.Now(), "manet.pending", p)
	}
	p.resolved = true
	h.untrackPending(p)
	scheme.ReleaseJudge(p.judge)
	h.net.recycleFrame(p.frame, h.lane)
	h.net.noteActivity(p.bid, h)
	bid := p.bid
	h.recyclePendingRebroadcast(p)
	h.net.openDec(bid, h) // after the final mutations: may fold the record
}

// inhibit cancels the pending rebroadcast (S5).
func (h *host) inhibit(p *pendingRebroadcast) {
	if h.net.audit != nil {
		h.net.audit.AuditUse(h.net.sched.Now(), "manet.pending", p)
	}
	p.resolved = true
	if p.assess != nil {
		h.net.sched.LaneCancel(int(h.lane), p.assess)
		p.assess = nil
	}
	if p.mp != nil && h.mac.Cancel(p.mp) {
		// Withdrawn before transmission started: the frame never hit the
		// air and nothing references it anymore. (p.frame, not p.mp.Frame:
		// the MAC may have already recycled its queue record.)
		h.net.recycleFrame(p.frame, h.lane)
	}
	scheme.ReleaseJudge(p.judge)
	h.untrackPending(p)
	h.net.noteActivity(p.bid, h)
	h.net.trace(obs.Inhibit, p.bid, h.id)
	bid := p.bid
	h.recyclePendingRebroadcast(p)
	h.net.openDec(bid, h) // after the final mutations: may fold the record
}

// originate makes this host the source of a new broadcast: the source
// always transmits the packet (there is no decision to make).
func (h *host) originate(bid packet.BroadcastID, payload any) {
	h.net.dedup.observe(h.id, bid.Seq)
	frame := h.net.newBroadcastFrame(bid, payload, h.id, h.Position(), h.lane)
	h.mac.Enqueue(frame, &originTx{h: h, bid: bid, frame: frame})
}

// originTx observes a source transmission. Originations are rare (one
// per broadcast request), so a record allocation per origination is
// noise next to the storm it triggers.
type originTx struct {
	h     *host
	bid   packet.BroadcastID
	frame *packet.Frame
}

// TxStarted implements mac.TxObserver.
func (o *originTx) TxStarted() {
	o.h.net.noteTransmitted(o.bid, o.h)
	o.h.net.trace(obs.Transmit, o.bid, o.h.id)
}

// TxDone implements mac.TxObserver.
func (o *originTx) TxDone() {
	o.h.net.recycleFrame(o.frame, o.h.lane)
	o.h.net.noteActivity(o.bid, o.h)
	o.h.net.openDec(o.bid, o.h) // the source's transmission no longer holds it
}

// scheduleHello arms the host's first HELLO at a random phase within one
// interval, so the population does not beacon in lockstep.
func (h *host) scheduleHello() {
	if h.net.cfg.HelloMode == HelloOff {
		return
	}
	first := h.currentHelloInterval()
	if h.net.cfg.HelloMode == HelloDynamic && first > neighbor.HIMin {
		// Before any HELLO has been exchanged the variation estimator
		// reads zero and would pick himax; start at himin instead so the
		// tables bootstrap quickly, then let DHI take over.
		first = neighbor.HIMin
	}
	phase := h.rng.UniformDuration(0, first)
	h.hello.timer = h.net.sched.AfterRunner(phase, (*helloTx)(h))
}

// currentHelloInterval evaluates the fixed or dynamic hello interval.
func (h *host) currentHelloInterval() sim.Duration {
	if h.net.cfg.HelloMode == HelloDynamic {
		return neighbor.DHIInterval(h.hello.table.Variation())
	}
	return h.net.cfg.HelloInterval
}

// sendHello beacons the host's neighbor set and schedules the next HELLO.
func (h *host) sendHello() {
	if h.net.sched.Now() >= h.net.endTime {
		return // run is over; stop beaconing so the event queue drains
	}
	interval := h.currentHelloInterval()
	if h.net.cfg.IdealHello {
		// Ablation mode: the beacon reaches every in-range host
		// instantly and without occupying the medium.
		h.net.idealHelloDeliver(h, interval)
	} else {
		f := h.net.newHelloFrame(h.id, h.Position(), interval)
		f.Neighbors = h.hello.table.Announce()
		f.Bytes = packet.HelloBaseBytes + packet.HelloPerNeighborBytes*len(f.Neighbors)
		if h.net.cfg.Repair {
			f.Recent = h.appendRecentIDs(f.Recent)
			f.Bytes += packet.HelloPerRecentBytes * len(f.Recent)
		}
		h.hello.fly = append(h.hello.fly, f)
		h.mac.Enqueue(f, (*helloTx)(h))
	}
	h.hello.timer = h.net.sched.AfterRunner(interval, (*helloTx)(h))
}
