package mac

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Conformance tests pin the DCF's exact inter-frame timing: a spying
// phy.Listener records every frame's delivery time, from which frame
// start times are reconstructed (delivery = start + airtime).

// spy records deliveries with timestamps.
type spy struct {
	sched  *sim.Scheduler
	events []spyEvent
}

type spyEvent struct {
	at   sim.Time
	kind packet.Kind
	from packet.NodeID
}

func (s *spy) CarrierBusy() {}
func (s *spy) CarrierIdle() {}
func (s *spy) Deliver(f *packet.Frame) {
	s.events = append(s.events, spyEvent{at: s.sched.Now(), kind: f.Kind, from: f.Sender})
}
func (s *spy) DeliverGarbled(*packet.Frame) {}

// TestAckTimingExactlySIFS: the ACK must start exactly SIFS after the
// data frame ends.
func TestAckTimingExactlySIFS(t *testing.T) {
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, phy.DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	rng := sim.NewRNG(1)
	tm := ch.Timing()

	a := New(sched, ch, phy.PositionFunc(func(sim.Time) geom.Point { return geom.Point{} }), rng.Fork(1))
	b := New(sched, ch, phy.PositionFunc(func(sim.Time) geom.Point { return geom.Point{X: 100} }), rng.Fork(2))
	b.Upper = ReceiverFunc(func(*packet.Frame) {})
	watcher := &spy{sched: sched}
	ch.Attach(phy.PositionFunc(func(sim.Time) geom.Point { return geom.Point{X: 50} }), watcher)

	a.Enqueue(packet.NewData(packet.NodeID(a.Radio()), packet.NodeID(b.Radio()), 100, "x", geom.Point{}), nil)
	sched.Run()

	var dataEnd, ackEnd sim.Time
	for _, e := range watcher.events {
		switch e.kind {
		case packet.KindData:
			dataEnd = e.at
		case packet.KindAck:
			ackEnd = e.at
		}
	}
	if dataEnd == 0 || ackEnd == 0 {
		t.Fatalf("missing frames in spy trace: %+v", watcher.events)
	}
	ackStart := ackEnd.Add(-tm.Airtime(packet.AckBytes))
	if gap := ackStart.Sub(dataEnd); gap != tm.SIFS {
		t.Errorf("ACK started %v after data end, want exactly SIFS (%v)", gap, tm.SIFS)
	}
}

// TestRTSCTSDataTiming: CTS starts SIFS after RTS ends; data starts SIFS
// after CTS ends.
func TestRTSCTSDataTiming(t *testing.T) {
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, phy.DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	rng := sim.NewRNG(3)
	tm := ch.Timing()

	a := New(sched, ch, phy.PositionFunc(func(sim.Time) geom.Point { return geom.Point{} }), rng.Fork(1))
	b := New(sched, ch, phy.PositionFunc(func(sim.Time) geom.Point { return geom.Point{X: 100} }), rng.Fork(2))
	a.World().SetRTSThreshold(1)
	b.Upper = ReceiverFunc(func(*packet.Frame) {})
	watcher := &spy{sched: sched}
	ch.Attach(phy.PositionFunc(func(sim.Time) geom.Point { return geom.Point{X: 50} }), watcher)

	a.Enqueue(packet.NewData(packet.NodeID(a.Radio()), packet.NodeID(b.Radio()), 200, "x", geom.Point{}), nil)
	sched.Run()

	ends := map[packet.Kind]sim.Time{}
	for _, e := range watcher.events {
		ends[e.kind] = e.at
	}
	for _, k := range []packet.Kind{packet.KindRTS, packet.KindCTS, packet.KindData, packet.KindAck} {
		if ends[k] == 0 {
			t.Fatalf("frame kind %v missing from exchange", k)
		}
	}
	ctsStart := ends[packet.KindCTS].Add(-tm.Airtime(packet.CTSBytes))
	if gap := ctsStart.Sub(ends[packet.KindRTS]); gap != tm.SIFS {
		t.Errorf("CTS gap = %v, want SIFS", gap)
	}
	dataStart := ends[packet.KindData].Add(-tm.Airtime(200))
	if gap := dataStart.Sub(ends[packet.KindCTS]); gap != tm.SIFS {
		t.Errorf("DATA gap = %v, want SIFS", gap)
	}
}

// TestBackoffSlotArithmetic: a frame enqueued at t=0 (idle < DIFS) must
// start at exactly DIFS + k*slot for some k in [0, CWMin].
func TestBackoffSlotArithmetic(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		sched := sim.NewScheduler()
		ch := phy.NewChannel(sched, phy.DSSSTiming(), 500)
		ch.SetMaxSpeed(0)
		tm := ch.Timing()
		m := New(sched, ch, phy.PositionFunc(func(sim.Time) geom.Point { return geom.Point{} }), sim.NewRNG(seed))
		var start sim.Time
		m.Enqueue(frame(0, 1), TxFuncs{Start: func() { start = sched.Now() }})
		sched.Run()

		offset := start.Sub(sim.Time(0)) - tm.DIFS
		if offset < 0 {
			t.Fatalf("seed %d: started before DIFS", seed)
		}
		if offset%tm.SlotTime != 0 {
			t.Errorf("seed %d: offset %v is not slot-aligned", seed, offset)
		}
		if slots := int(offset / tm.SlotTime); slots > tm.CWMin {
			t.Errorf("seed %d: backoff %d slots exceeds CWMin %d", seed, slots, tm.CWMin)
		}
	}
}

// TestNAVValueMatchesExchange: the RTS announces exactly the remaining
// exchange duration (CTS + DATA + ACK + 3 SIFS).
func TestNAVValueMatchesExchange(t *testing.T) {
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, phy.DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	rng := sim.NewRNG(5)
	tm := ch.Timing()

	a := New(sched, ch, phy.PositionFunc(func(sim.Time) geom.Point { return geom.Point{} }), rng.Fork(1))
	b := New(sched, ch, phy.PositionFunc(func(sim.Time) geom.Point { return geom.Point{X: 100} }), rng.Fork(2))
	a.World().SetRTSThreshold(1)
	b.Upper = ReceiverFunc(func(*packet.Frame) {})

	var nav sim.Duration
	watcher := &navSpy{sched: sched, navs: &nav}
	ch.Attach(phy.PositionFunc(func(sim.Time) geom.Point { return geom.Point{X: 50} }), watcher)

	const bytes = 300
	a.Enqueue(packet.NewData(packet.NodeID(a.Radio()), packet.NodeID(b.Radio()), bytes, "x", geom.Point{}), nil)
	sched.Run()

	want := 3*tm.SIFS + tm.Airtime(packet.CTSBytes) + tm.Airtime(bytes) + tm.Airtime(packet.AckBytes)
	if nav != want {
		t.Errorf("RTS NAV = %v, want %v", nav, want)
	}
}

type navSpy struct {
	sched *sim.Scheduler
	navs  *sim.Duration
}

func (s *navSpy) CarrierBusy() {}
func (s *navSpy) CarrierIdle() {}
func (s *navSpy) Deliver(f *packet.Frame) {
	if f.Kind == packet.KindRTS {
		*s.navs = f.NAV
	}
}
func (s *navSpy) DeliverGarbled(*packet.Frame) {}
