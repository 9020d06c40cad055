package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/neighbor"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// Wire layout: an 8-byte magic, a version byte, then the Checkpoint
// fields in declaration order, all integers big-endian. Counts are
// uint32 prefixes; booleans are a single 0/1 byte (any other value is
// rejected, which is what keeps the encoding canonical); floats are
// IEEE 754 bits. Decode consumes the whole input — truncation inside a
// field and trailing bytes after the document are both errors — and
// every count is sanity-checked against the bytes remaining before
// anything is allocated, so a forged length cannot balloon memory.
//
// Each section below is one function that names its fields once, in
// wire order; the same walk encodes or decodes depending on the coder's
// direction, so the two cannot disagree about the layout. What they
// cannot show is that the layout is still v1: that is pinned against
// committed bytes (TestLayoutPinned*, TestSeedCheckpoint* in this
// package's tests).

// Magic prefixes every encoded checkpoint.
const Magic = "STRMSNAP"

// CodecVersion is the format version written after the magic.
const CodecVersion = 1

// ErrTruncated reports input that ended inside a field.
var ErrTruncated = errors.New("snapshot: truncated checkpoint")

// maxCount caps every length prefix in addition to the remaining-bytes
// bound, so a single corrupt count cannot demand a giant allocation.
const maxCount = 1 << 28

// coder walks a document in one of two directions. Encoding (dec false)
// appends each visited field to buf. Decoding (dec true) fills each
// visited field from buf at off; the first failure sticks in err and
// turns every later visit into a no-op, so sections need no per-field
// error plumbing and Decode checks once at the end.
type coder struct {
	buf []byte
	off int
	dec bool
	err error
}

func (c *coder) remaining() int { return len(c.buf) - c.off }

// take consumes n input bytes, or records a truncation naming field and
// returns nil.
func (c *coder) take(n int, field string) []byte {
	if c.err != nil {
		return nil
	}
	if n > c.remaining() {
		c.err = fmt.Errorf("%w: %s at offset %d (have %d of %d bytes)",
			ErrTruncated, field, c.off, c.remaining(), n)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

func (c *coder) u8(v *uint8, field string) {
	if !c.dec {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1, field); b != nil {
		*v = b[0]
	}
}

func (c *coder) u32(v *uint32, field string) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint32(c.buf, *v)
	} else if b := c.take(4, field); b != nil {
		*v = binary.BigEndian.Uint32(b)
	}
}

func (c *coder) u64(v *uint64, field string) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8, field); b != nil {
		*v = binary.BigEndian.Uint64(b)
	}
}

// i64 carries an int, sim.Time, sim.Duration or int64 as 64 bits.
func i64[T ~int | ~int64](c *coder, v *T, field string) {
	u := uint64(*v)
	c.u64(&u, field)
	if c.dec {
		*v = T(u)
	}
}

// i32 carries an int32 or packet.NodeID as 32 bits.
func i32[T ~int32](c *coder, v *T, field string) {
	u := uint32(*v)
	c.u32(&u, field)
	if c.dec {
		*v = T(u)
	}
}

func (c *coder) f64(v *float64, field string) {
	u := math.Float64bits(*v)
	c.u64(&u, field)
	if c.dec {
		*v = math.Float64frombits(u)
	}
}

func (c *coder) point(p *geom.Point, field string) {
	c.f64(&p.X, field)
	c.f64(&p.Y, field)
}

func (c *coder) boolean(v *bool, field string) {
	var b uint8
	if *v {
		b = 1
	}
	c.u8(&b, field)
	if !c.dec || c.err != nil {
		return
	}
	if b > 1 {
		c.err = fmt.Errorf("snapshot: non-canonical boolean %d in %s", b, field)
		return
	}
	*v = b == 1
}

func (c *coder) rng(s *[4]uint64, field string) {
	for i := range s {
		c.u64(&s[i], field)
	}
}

func (c *coder) bid(id *packet.BroadcastID, field string) {
	i32(c, &id.Source, field)
	c.u32(&id.Seq, field)
}

// count walks a length prefix. Decoding, it checks the count against
// the bytes remaining (each element occupies at least elemSize bytes)
// before the caller allocates anything, and returns 0 once the walk has
// failed.
func (c *coder) count(n, elemSize int, field string) int {
	u := uint32(n)
	c.u32(&u, field)
	if !c.dec {
		return n
	}
	if c.err != nil {
		return 0
	}
	n = int(u)
	if n > maxCount || n*elemSize > c.remaining() {
		c.err = fmt.Errorf("snapshot: %s count %d exceeds remaining input", field, n)
		return 0
	}
	return n
}

func (c *coder) str(s *string, field string) {
	n := c.count(len(*s), 1, field)
	if !c.dec {
		c.buf = append(c.buf, *s...)
	} else {
		*s = string(c.take(n, field))
	}
}

// list walks a counted sequence: the length prefix, then every element
// through elem, which receives the list's own label for elements that
// are a single unlabelled value. Decoding sizes the slice from the
// validated count; a zero count leaves it nil.
func list[T any](c *coder, s *[]T, elemSize int, field string, elem func(*coder, *T, string)) {
	n := c.count(len(*s), elemSize, field)
	if c.dec {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		if c.err != nil {
			return
		}
		elem(c, &(*s)[i], field)
	}
}

// nodes and bids are lists of ids — dedup tables and two-hop sets, the
// bulk of every real document. A run encodes a checkpoint per cadence
// tick and decodes one per resume, so only the encoding side trades the
// call per element for a plain append loop.
func (c *coder) nodes(s *[]packet.NodeID, field string) {
	if c.dec {
		list(c, s, 4, field, i32[packet.NodeID])
		return
	}
	c.count(len(*s), 4, field)
	for _, id := range *s {
		c.buf = binary.BigEndian.AppendUint32(c.buf, uint32(id))
	}
}

func (c *coder) bids(s *[]packet.BroadcastID, field string) {
	if c.dec {
		list(c, s, 8, field, (*coder).bid)
		return
	}
	c.count(len(*s), 8, field)
	for _, id := range *s {
		c.buf = binary.BigEndian.AppendUint32(c.buf, uint32(id.Source))
		c.buf = binary.BigEndian.AppendUint32(c.buf, id.Seq)
	}
}

// --- scheduler ---

func sched(c *coder, st *sim.SchedulerState) {
	i64(c, &st.Now, "sched.now")
	c.u64(&st.Seq, "sched.seq")
	c.u64(&st.Executed, "sched.executed")
	c.u64(&st.PoolHits, "sched.pool_hits")
	c.u64(&st.PoolMisses, "sched.pool_misses")
	i64(c, &st.FreeLen, "sched.free_len")
	list(c, &st.Lanes, 16, "sched.lanes", func(c *coder, ln *sim.LaneState, _ string) {
		c.u64(&ln.Seq, "sched.lane.seq")
		i64(c, &ln.FreeLen, "sched.lane.free_len")
	})
}

// --- channel ---

func channel(c *coder, st *phy.ChannelState) {
	i64(c, &st.Stats.Transmissions, "phy.transmissions")
	i64(c, &st.Stats.Deliveries, "phy.deliveries")
	i64(c, &st.Stats.Collisions, "phy.collisions")
	i64(c, &st.Stats.Lost, "phy.lost")
	c.boolean(&st.HasLoss, "phy.has_loss")
	c.rng(&st.LossRNG, "phy.loss_rng")
	i64(c, &st.MaxAir, "phy.max_air")
	c.u64(&st.TxPoolHits, "phy.tx_pool_hits")
	c.u64(&st.TxPoolMisses, "phy.tx_pool_misses")
	i64(c, &st.TxFreeLen, "phy.tx_free_len")
	list(c, &st.Active, 52, "phy.active", func(c *coder, tx *phy.TxState, _ string) {
		c.u32(&tx.FrameRef, "phy.tx.frame_ref")
		c.u32(&tx.EnderRef, "phy.tx.ender_ref")
		i32(c, &tx.Sender, "phy.tx.sender")
		c.point(&tx.SenderPos, "phy.tx.pos")
		i64(c, &tx.End, "phy.tx.end")
		c.u64(&tx.EndSeq, "phy.tx.end_seq")
		list(c, &tx.Receivers, 4, "phy.tx.receivers", i32[int32])
		c.nodes(&tx.Garbled, "phy.tx.garbled")
	})
}

// --- MAC ---

func macPending(c *coder, st *mac.PendingState, field string) {
	c.u32(&st.FrameRef, field)
	c.u32(&st.ObsRef, field)
	c.boolean(&st.Started, field)
	c.boolean(&st.Cancelled, field)
	c.boolean(&st.Retransmit, field)
}

func macState(c *coder, st *mac.MACState) {
	i64(c, &st.Stats.Enqueued, "mac.enqueued")
	i64(c, &st.Stats.Sent, "mac.sent")
	i64(c, &st.Stats.Cancelled, "mac.cancelled")
	i64(c, &st.Stats.AcksSent, "mac.acks_sent")
	i64(c, &st.Stats.Retries, "mac.stat_retries")
	i64(c, &st.Stats.Dropped, "mac.dropped")
	i64(c, &st.Stats.Stalls, "mac.stalls")
	i64(c, &st.CW, "mac.cw")
	c.rng(&st.RNG, "mac.rng")
	c.boolean(&st.Busy, "mac.busy")
	i64(c, &st.IdleSince, "mac.idle_since")
	i64(c, &st.BackoffRemaining, "mac.backoff_remaining")
	i64(c, &st.Retries, "mac.retries")
	list(c, &st.Queue, 11, "mac.queue", macPending)
	c.boolean(&st.HasInflight, "mac.has_inflight")
	macPending(c, &st.Inflight, "mac.inflight")
	c.boolean(&st.HasAwait, "mac.has_await")
	macPending(c, &st.Await, "mac.await")
	i64(c, &st.AwaitTimerAt, "mac.await_at")
	c.u64(&st.AwaitTimerSeq, "mac.await_seq")
	c.boolean(&st.HasTxEvent, "mac.has_tx_event")
	i64(c, &st.TxEventAt, "mac.tx_event_at")
	c.u64(&st.TxEventSeq, "mac.tx_event_seq")
	i64(c, &st.TxEventBase, "mac.tx_event_base")
	i64(c, &st.TxEventSlots, "mac.tx_event_slots")
	c.boolean(&st.HasAck, "mac.has_ack")
	i32(c, &st.AckTo, "mac.ack_to")
	i64(c, &st.AckAt, "mac.ack_at")
	c.u64(&st.AckSeq, "mac.ack_seq")
	i64(c, &st.FreeLen, "mac.free_len")
}

// --- mobility ---

func mover(c *coder, st *mobility.RoamerState) {
	i64(c, &st.SegStart, "mover.seg_start")
	c.point(&st.Origin, "mover.origin")
	c.f64(&st.VX, "mover.vx")
	c.f64(&st.VY, "mover.vy")
	i64(c, &st.PrevStart, "mover.prev_start")
	c.point(&st.PrevOrigin, "mover.prev_origin")
	c.f64(&st.PrevVX, "mover.prev_vx")
	c.f64(&st.PrevVY, "mover.prev_vy")
	i64(c, &st.TurnAt, "mover.turn_at")
	c.boolean(&st.HasPrev, "mover.has_prev")
	c.boolean(&st.Stopped, "mover.stopped")
	c.rng(&st.RNG, "mover.rng")
	c.boolean(&st.HasTurn, "mover.has_turn")
	i64(c, &st.TurnEventAt, "mover.turn_event_at")
	c.u64(&st.TurnEventSeq, "mover.turn_event_seq")
}

// --- neighbor table ---

func table(c *coder, st *neighbor.TableState) {
	list(c, &st.Entries, 40, "table.entries", func(c *coder, en *neighbor.EntryState, _ string) {
		i32(c, &en.ID, "table.entry.id")
		i64(c, &en.LastHeard, "table.entry.last_heard")
		i64(c, &en.Interval, "table.entry.interval")
		i64(c, &en.Deadline, "table.entry.deadline")
		c.u64(&en.ExpirySeq, "table.entry.expiry_seq")
		c.nodes(&en.TwoHop, "table.entry.two_hop")
	})
	list(c, &st.Changes, 8, "table.changes", i64[sim.Time])
}

// --- judge ---

func judge(c *coder, st *scheme.JudgeState) {
	c.u8((*uint8)(&st.Kind), "judge.kind")
	i64(c, &st.C, "judge.c")
	i64(c, &st.Threshold, "judge.threshold")
	c.point(&st.Own, "judge.own")
	c.f64(&st.DThreshold, "judge.d_threshold")
	c.f64(&st.MinDist, "judge.min_dist")
	c.f64(&st.Radius, "judge.radius")
	c.f64(&st.AThreshold, "judge.a_threshold")
	list(c, &st.Senders, 16, "judge.senders", (*coder).point)
	c.boolean(&st.Rebroadcast, "judge.rebroadcast")
	c.nodes(&st.Pending, "judge.pending")
}

// --- frames, observers ---

func frame(c *coder, f *Frame, _ string) {
	c.u8(&f.Kind, "frame.kind")
	i32(c, &f.Sender, "frame.sender")
	i32(c, &f.Dest, "frame.dest")
	i64(c, &f.Bytes, "frame.bytes")
	c.bid(&f.Broadcast, "frame.broadcast")
	c.f64(&f.SenderPos[0], "frame.pos_x")
	c.f64(&f.SenderPos[1], "frame.pos_y")
	c.nodes(&f.Neighbors, "frame.neighbors")
	i64(c, &f.HelloInterval, "frame.hello_interval")
	c.bids(&f.Recent, "frame.recent")
	c.u8(&f.PayloadKind, "frame.payload_kind")
	c.bid(&f.PayloadID, "frame.payload_id")
}

func observer(c *coder, o *Observer, _ string) {
	c.u8(&o.Kind, "observer.kind")
	i32(c, &o.Host, "observer.host")
	c.bid(&o.Bid, "observer.bid")
	c.u32(&o.FrameRef, "observer.frame_ref")
}

// --- host ---

func host(c *coder, h *Host, _ string) {
	c.bids(&h.Dedup, "host.dedup")
	c.rng(&h.RNG, "host.rng")
	mover(c, &h.Mover)
	table(c, &h.Table)
	macState(c, &h.MAC)
	list(c, &h.Pending, 80, "host.pending", func(c *coder, p *PendingDecision, _ string) {
		c.bid(&p.Bid, "host.pending.bid")
		judge(c, &p.Judge)
		c.boolean(&p.Started, "host.pending.started")
		c.boolean(&p.HasAssess, "host.pending.has_assess")
		i64(c, &p.AssessAt, "host.pending.assess_at")
		c.u64(&p.AssessSeq, "host.pending.assess_seq")
		c.u32(&p.FrameRef, "host.pending.frame_ref")
	})
	i64(c, &h.PrFree, "host.pr_free")
	list(c, &h.HelloFly, 4, "host.hello_fly", (*coder).u32)
	c.boolean(&h.HasHelloTimer, "host.has_hello_timer")
	i64(c, &h.HelloAt, "host.hello_at")
	c.u64(&h.HelloSeq, "host.hello_seq")
	list(c, &h.Recent, 16, "host.recent", func(c *coder, r *RecentBroadcast, _ string) {
		c.bid(&r.ID, "host.recent.id")
		i64(c, &r.Heard, "host.recent.heard")
	})
	c.bids(&h.Nacked, "host.nacked")
}

// --- network ---

func network(c *coder, n *Network) {
	c.u32(&n.Seq, "net.seq")
	i64(c, &n.EndTime, "net.end_time")
	i64(c, &n.HelloSent, "net.hello_sent")
	i64(c, &n.RepairsRequested, "net.repairs_requested")
	i64(c, &n.RepairsDelivered, "net.repairs_delivered")
	list(c, &n.Records, 52, "net.records", func(c *coder, r *Record, _ string) {
		c.bid(&r.ID, "net.record.id")
		i64(c, &r.Start, "net.record.start")
		i64(c, &r.Reachable, "net.record.reachable")
		i64(c, &r.Received, "net.record.received")
		i64(c, &r.Transmitted, "net.record.transmitted")
		i64(c, &r.LastActivity, "net.record.last_activity")
		i32(c, &r.Open, "net.record.open")
	})
	c.u32(&n.RecBase, "net.rec_base")
	list(c, &n.Stream.RE, 8, "net.stream.re", (*coder).f64)
	list(c, &n.Stream.SRB, 8, "net.stream.srb", (*coder).f64)
	list(c, &n.Stream.Lat, 8, "net.stream.lat", i64[sim.Duration])
	i64(c, &n.SetPool, "net.set_pool")
	i64(c, &n.FramePool, "net.frame_pool")
	i64(c, &n.HelloPool, "net.hello_pool")
	list(c, &n.Originations, 20, "net.originations", func(c *coder, o *Origination, _ string) {
		i32(c, &o.Src, "net.origination.src")
		i64(c, &o.At, "net.origination.at")
		c.u64(&o.Seq, "net.origination.seq")
	})
}

// --- document ---

func document(c *coder, ck *Checkpoint) {
	if !c.dec {
		c.buf = append(c.buf, Magic...)
	} else if m := c.take(len(Magic), "magic"); m != nil && string(m) != Magic {
		c.err = fmt.Errorf("snapshot: bad magic %q", m)
	}
	ver := uint8(CodecVersion)
	if c.u8(&ver, "version"); c.err == nil && ver != CodecVersion {
		c.err = fmt.Errorf("snapshot: unknown codec version %d", ver)
	}
	c.str(&ck.Digest, "digest")
	sched(c, &ck.Sched)
	channel(c, &ck.Channel)
	network(c, &ck.Net)
	list(c, &ck.Frames, 66, "frames", frame)
	list(c, &ck.Observers, 17, "observers", observer)
	list(c, &ck.Hosts, 120, "hosts", host)
}

// Append appends ck's wire encoding to dst and returns the extended
// slice.
func Append(dst []byte, ck *Checkpoint) []byte {
	c := coder{buf: dst}
	document(&c, ck)
	return c.buf
}

// Decode parses one encoded checkpoint. The whole input must be
// consumed: trailing bytes are an error, so a corrupted length prefix
// cannot silently drop state.
func Decode(data []byte) (*Checkpoint, error) {
	c := coder{buf: data, dec: true}
	ck := &Checkpoint{}
	document(&c, ck)
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(data) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after checkpoint", len(data)-c.off)
	}
	return ck, nil
}

// Read consumes all of r and decodes one checkpoint from it.
func Read(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
