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
//   - accounting: enqueued = sent + cancelled + still-queued at the end.
func TestMACRandomWorkloadInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			sched := sim.NewScheduler()
			ch := phy.NewChannel(sched, phy.DSSSTiming(), 500)
			rng := sim.NewRNG(seed)

			const nMACs = 6
			macs := make([]*MAC, nMACs)
			for i := 0; i < nMACs; i++ {
				p := geom.Point{X: float64(i) * 120} // all mutually in range
				macs[i] = New(sched, ch, phy.PositionFunc(func(sim.Time) geom.Point { return p }), rng.Fork(uint64(i)))
			}

			type tracked struct {
				owner     *MAC
				p         *Pending
				started   bool
				done      bool
				cancelled bool
			}
			var frames []*tracked

			// Random workload: 200 operations over 2 simulated seconds.
			opRNG := rng.Fork(99)
			for op := 0; op < 200; op++ {
				at := sim.Time(opRNG.IntN(2_000_000))
				m := macs[opRNG.IntN(nMACs)]
				if opRNG.IntN(4) != 0 || len(frames) == 0 {
					// Enqueue a frame.
					tr := &tracked{owner: m}
					frames = append(frames, tr)
					seq := uint32(op)
					sched.Schedule(at, func() {
						f := packet.NewBroadcast(packet.BroadcastID{Seq: seq}, 0, geom.Point{})
						tr.p = m.Enqueue(f, TxFuncs{Start: func() {
							if tr.cancelled {
								t.Error("cancelled frame started")
							}
							tr.started = true
						}, Done: func() {
							if !tr.started {
								t.Error("onDone before onStart")
							}
							tr.done = true
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
			}
			// Cross-MAC accounting.
			var enq, sent, cancelled, queued int
			for _, m := range macs {
				st := m.Stats()
				enq += st.Enqueued
				sent += st.Sent
				cancelled += st.Cancelled
				queued += m.QueueLen()
			}
			if enq != sent+cancelled+queued {
				t.Errorf("accounting: enqueued %d != sent %d + cancelled %d + queued %d",
					enq, sent, cancelled, queued)
			}
			if queued != 0 {
				t.Errorf("%d frames stuck in queues after drain", queued)
			}
		})
	}
}

// Cancel on a foreign MAC is undefined behaviour we do not allow in the
// fuzz above — the workload always cancels through the owning MAC. This
// test documents that cancelling a frame twice through its owner stays
// consistent even under live traffic.
func TestCancelUnderLiveTraffic(t *testing.T) {
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, phy.DSSSTiming(), 500)
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
