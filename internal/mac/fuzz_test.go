package mac

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/sim"
)

// TestMACRandomWorkloadInvariants drives several MACs with a randomized
// enqueue/cancel workload and checks global invariants:
//
//   - every frame either starts transmitting or is cancelled, never both
//     (outcomes come from the frame's own TxFuncs callbacks: the MAC
//     recycles a handle once its frame completes, so the handle cannot
//     be read afterwards);
//   - a MAC never has two transmissions in flight (the channel panics on
//     that, so mere completion is the assertion);
//   - onStart precedes onDone for every sent frame;
//   - accounting: enqueued = first transmissions + cancelled +
//     still-queued at the end, and sent = first transmissions +
//     retries;
//   - a MAC holds its unicast record if it sent a unicast frame, and
//     only if it sent one or was handed a unicast, RTS or CTS frame;
//     in a broadcast-only workload none does.
//
// Each seed runs the broadcast workload, then a mixed one in which a
// third of the frames are unicast, with RTS/CTS on for even seeds.
func TestMACRandomWorkloadInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run("", func(t *testing.T) {
			randomWorkload(t, seed, false, false)
			t.Run("mixed", func(t *testing.T) { randomWorkload(t, seed, true, seed%2 == 0) })
		})
	}
}

// heardBy is a radio's listener in randomWorkload: it marks *heard when
// the radio is handed a unicast, RTS or CTS frame, and passes every
// call on to the MAC.
type heardBy struct {
	*MAC
	heard *bool
}

func (l heardBy) Deliver(f *packet.Frame) {
	if f.Dest != packet.DestBroadcast {
		*l.heard = true
	}
	l.MAC.Deliver(f)
}

// randomWorkload runs one arm of TestMACRandomWorkloadInvariants. With
// mixed set, a third of the enqueued frames are unicast data to a
// random address (one of which no MAC owns, so some exchanges drop);
// rts enables RTS/CTS for all of them.
func randomWorkload(t *testing.T, seed uint64, mixed, rts bool) {
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, phy.DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	rng := sim.NewRNG(seed)

	const nMACs = 6
	macs := make([]*MAC, nMACs)
	heard := make([]bool, nMACs)
	sentUnicast := make([]bool, nMACs)
	for i := 0; i < nMACs; i++ {
		p := geom.Point{X: float64(i) * 120} // a 500 m radius: the two ends are hidden from each other
		m := new(MAC)
		radio := ch.AttachBatch(1)
		m.init(NewShared(sched, ch), rng.Fork(uint64(i)), radio)
		ch.SetRadio(radio, phy.PositionFunc(func(sim.Time) geom.Point { return p }), heardBy{m, &heard[i]})
		if rts {
			m.World().SetRTSThreshold(1)
		}
		macs[i] = m
	}

	type tracked struct {
		owner     *MAC
		p         *Pending
		unicast   bool
		started   bool
		done      bool
		failed    bool
		cancelled bool
	}
	var frames []*tracked

	// Random workload: 200 operations over 2 simulated seconds.
	opRNG := rng.Fork(99)
	for op := 0; op < 200; op++ {
		at := sim.Time(opRNG.IntN(2_000_000))
		mi := opRNG.IntN(nMACs)
		m := macs[mi]
		if opRNG.IntN(4) != 0 || len(frames) == 0 {
			// Enqueue a frame.
			tr := &tracked{owner: m}
			frames = append(frames, tr)
			seq := uint32(op)
			dest := packet.DestBroadcast
			if mixed && opRNG.IntN(3) == 0 {
				tr.unicast = true
				dest = packet.NodeID(opRNG.IntN(nMACs + 1))
			}
			sched.Schedule(at, func() {
				f := packet.NewBroadcast(packet.BroadcastID{Seq: seq}, 0, geom.Point{})
				if tr.unicast {
					f = packet.NewData(m.Addr(), dest, 512, nil, geom.Point{})
				}
				tr.p = m.Enqueue(f, TxFuncs{Start: func() {
					if tr.cancelled {
						t.Error("cancelled frame started")
					}
					if tr.started {
						t.Error("onStart ran twice")
					}
					tr.started = true
					sentUnicast[mi] = sentUnicast[mi] || tr.unicast
				}, Done: func() {
					if !tr.started {
						t.Error("onDone before onStart")
					}
					tr.done = true
					tr.failed = tr.p.Failed()
				}})
			})
		} else {
			// Cancel a random earlier frame through its owning
			// MAC (it may already have started; Cancel must cope).
			// A handle whose frame completed or was cancelled may
			// have been recycled for a later frame, so the pooling
			// contract forbids touching it again.
			victim := frames[opRNG.IntN(len(frames))]
			sched.Schedule(at, func() {
				if victim.p == nil || victim.done || victim.cancelled {
					return
				}
				if victim.owner.Cancel(victim.p) {
					if victim.started {
						t.Error("Cancel succeeded on a started frame")
					}
					victim.cancelled = true
				}
			})
		}
	}
	sched.Run()

	starts, failed, acked := 0, 0, 0
	for i, tr := range frames {
		if tr.p == nil {
			continue
		}
		if tr.started && tr.cancelled {
			t.Errorf("frame %d both started and cancelled", i)
		}
		if tr.started && !tr.done {
			t.Errorf("frame %d started but never completed", i)
		}
		if tr.failed && !tr.unicast {
			t.Errorf("broadcast frame %d failed", i)
		}
		if tr.started {
			starts++
		}
		if tr.failed {
			failed++
		} else if tr.unicast && tr.done {
			acked++
		}
	}
	// Cross-MAC accounting.
	var total Stats
	queued := 0
	for i, m := range macs {
		st := m.Stats()
		total.Enqueued += st.Enqueued
		total.Sent += st.Sent
		total.Cancelled += st.Cancelled
		total.AcksSent += st.AcksSent
		total.Retries += st.Retries
		total.Dropped += st.Dropped
		queued += m.QueueLen()
		if has := m.uc != nil; has && !sentUnicast[i] && !heard[i] || sentUnicast[i] && !has {
			t.Errorf("MAC %d holds a unicast record: %v; sent a unicast: %v, handed a unicast, RTS or CTS: %v",
				i, has, sentUnicast[i], heard[i])
		}
	}
	if total.Enqueued != starts+total.Cancelled+queued {
		t.Errorf("accounting: enqueued %d != first transmissions %d + cancelled %d + queued %d",
			total.Enqueued, starts, total.Cancelled, queued)
	}
	if total.Sent != starts+total.Retries {
		t.Errorf("accounting: sent %d != first transmissions %d + retries %d", total.Sent, starts, total.Retries)
	}
	if total.Dropped != failed {
		t.Errorf("accounting: %d unicast frames failed, MACs dropped %d", failed, total.Dropped)
	}
	if total.AcksSent < acked {
		t.Errorf("accounting: %d unicast frames acknowledged with %d ACKs sent", acked, total.AcksSent)
	}
	if queued != 0 {
		t.Errorf("%d frames stuck in queues after drain", queued)
	}
	if mixed && (acked == 0 || failed == 0) {
		t.Errorf("mixed workload acknowledged %d and dropped %d unicast frames; the arm exercises too little", acked, failed)
	}
}

// Cancel on a foreign MAC is undefined behaviour we do not allow in the
// fuzz above — the workload always cancels through the owning MAC. This
// test documents that cancelling a frame twice through its owner stays
// consistent even under live traffic.
func TestCancelUnderLiveTraffic(t *testing.T) {
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, phy.DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	rng := sim.NewRNG(42)
	a := New(sched, ch, phy.PositionFunc(func(sim.Time) geom.Point { return geom.Point{} }), rng.Fork(1))
	b := New(sched, ch, phy.PositionFunc(func(sim.Time) geom.Point { return geom.Point{X: 50} }), rng.Fork(2))

	// Keep the medium loaded from a.
	for i := 0; i < 10; i++ {
		a.Enqueue(packet.NewBroadcast(packet.BroadcastID{Source: 1, Seq: uint32(i)}, 1, geom.Point{}), nil)
	}
	var ps []*Pending
	for i := 0; i < 10; i++ {
		ps = append(ps, b.Enqueue(packet.NewBroadcast(packet.BroadcastID{Source: 2, Seq: uint32(i)}, 2, geom.Point{}), nil))
	}
	// Cancel every other frame of b at staggered times.
	for i := 0; i < 10; i += 2 {
		p := ps[i]
		sched.After(sim.Duration(i+1)*sim.Millisecond, func() { b.Cancel(p) })
	}
	sched.Run()

	st := b.Stats()
	if st.Sent+st.Cancelled != 10 {
		t.Errorf("b: sent %d + cancelled %d != 10", st.Sent, st.Cancelled)
	}
	if b.QueueLen() != 0 {
		t.Errorf("b queue not drained: %d", b.QueueLen())
	}
}
