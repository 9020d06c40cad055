package phy

import (
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/sim"
)

// fakeListener records channel callbacks.
type fakeListener struct {
	busy, idle       int
	delivered        []*packet.Frame
	garbled          []*packet.Frame
	onDeliver        func(f *packet.Frame)
	onCarrierBusy    func()
	deliverGarbledFn func(f *packet.Frame)
}

func (l *fakeListener) CarrierBusy() {
	l.busy++
	if l.onCarrierBusy != nil {
		l.onCarrierBusy()
	}
}
func (l *fakeListener) CarrierIdle() { l.idle++ }
func (l *fakeListener) Deliver(f *packet.Frame) {
	l.delivered = append(l.delivered, f)
	if l.onDeliver != nil {
		l.onDeliver(f)
	}
}
func (l *fakeListener) DeliverGarbled(f *packet.Frame) {
	l.garbled = append(l.garbled, f)
	if l.deliverGarbledFn != nil {
		l.deliverGarbledFn(f)
	}
}

func static(p geom.Point) PositionFunc {
	return func(sim.Time) geom.Point { return p }
}

func bcastFrame(sender packet.NodeID) *packet.Frame {
	return packet.NewBroadcast(packet.BroadcastID{Source: sender, Seq: 1}, sender, geom.Point{})
}

func TestAirtimeMatchesPaperNumbers(t *testing.T) {
	tm := DSSSTiming()
	// 280 bytes at 1 Mbps = 2240 us payload + 144 + 48 us PLCP.
	if got := tm.Airtime(280); got != 2432*sim.Microsecond {
		t.Errorf("airtime(280B) = %v, want 2432us", got)
	}
	if got := tm.Airtime(0); got != 192*sim.Microsecond {
		t.Errorf("airtime(0B) = %v, want PLCP-only 192us", got)
	}
}

func TestDeliveryInRange(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	a := &fakeListener{}
	b := &fakeListener{}
	far := &fakeListener{}
	ra := ch.Attach(static(geom.Point{X: 0}), a)
	ch.Attach(static(geom.Point{X: 400}), b)
	ch.Attach(static(geom.Point{X: 901}), far)

	done := false
	air := ch.Transmit(ra, bcastFrame(0), TxEndFunc(func() { done = true }))
	if air != 2432*sim.Microsecond {
		t.Fatalf("airtime = %v", air)
	}
	sched.Run()

	if len(b.delivered) != 1 {
		t.Errorf("in-range radio got %d frames, want 1", len(b.delivered))
	}
	if len(far.delivered) != 0 || len(far.garbled) != 0 {
		t.Errorf("out-of-range radio heard something: %d/%d", len(far.delivered), len(far.garbled))
	}
	if len(a.delivered) != 0 {
		t.Error("sender delivered its own frame to itself")
	}
	if !done {
		t.Error("onDone not called")
	}
	st := ch.Stats()
	if st.Transmissions != 1 || st.Deliveries != 1 || st.Collisions != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCarrierSenseTransitions(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	a := &fakeListener{}
	b := &fakeListener{}
	ra := ch.Attach(static(geom.Point{X: 0}), a)
	rb := ch.Attach(static(geom.Point{X: 100}), b)

	ch.Transmit(ra, bcastFrame(0), nil)
	if ch.busyCount[rb] == 0 || ch.busyCount[ra] == 0 {
		t.Error("carrier not busy during transmission")
	}
	if b.busy != 1 {
		t.Errorf("receiver saw %d busy transitions, want 1", b.busy)
	}
	sched.Run()
	if ch.busyCount[rb] != 0 || ch.busyCount[ra] != 0 {
		t.Error("carrier still busy after transmission end")
	}
	if b.idle != 1 || a.idle != 1 {
		t.Errorf("idle transitions: a=%d b=%d, want 1 each", a.idle, b.idle)
	}
}

func TestOverlappingTransmissionsCollide(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	// Two senders both in range of a middle receiver; senders are out of
	// range of each other (hidden terminals).
	s1 := &fakeListener{}
	s2 := &fakeListener{}
	mid := &fakeListener{}
	r1 := ch.Attach(static(geom.Point{X: 0}), s1)
	rm := ch.Attach(static(geom.Point{X: 450}), mid)
	r2 := ch.Attach(static(geom.Point{X: 900}), s2)
	_ = rm

	ch.Transmit(r1, bcastFrame(0), nil)
	// Second transmission starts midway through the first.
	sched.After(1000*sim.Microsecond, func() {
		ch.Transmit(r2, bcastFrame(2), nil)
	})
	sched.Run()

	if len(mid.delivered) != 0 {
		t.Errorf("middle host decoded %d frames despite overlap", len(mid.delivered))
	}
	if len(mid.garbled) != 2 {
		t.Errorf("middle host saw %d garbled frames, want 2", len(mid.garbled))
	}
	if ch.Stats().Collisions != 2 {
		t.Errorf("collisions = %d, want 2", ch.Stats().Collisions)
	}
}

func TestNonOverlappingReceiversUnaffected(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	// s1 -> a, s2 -> b, disjoint neighborhoods; both succeed even though
	// transmissions overlap in time.
	s1, a, s2, b := &fakeListener{}, &fakeListener{}, &fakeListener{}, &fakeListener{}
	r1 := ch.Attach(static(geom.Point{X: 0}), s1)
	ch.Attach(static(geom.Point{X: 400}), a)
	r2 := ch.Attach(static(geom.Point{X: 5000}), s2)
	ch.Attach(static(geom.Point{X: 5400}), b)

	ch.Transmit(r1, bcastFrame(0), nil)
	ch.Transmit(r2, bcastFrame(2), nil)
	sched.Run()

	if len(a.delivered) != 1 || len(b.delivered) != 1 {
		t.Errorf("spatially disjoint transmissions interfered: a=%d b=%d",
			len(a.delivered), len(b.delivered))
	}
}

func TestTransmitterCannotReceiveWhileSending(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	a, b := &fakeListener{}, &fakeListener{}
	ra := ch.Attach(static(geom.Point{X: 0}), a)
	rb := ch.Attach(static(geom.Point{X: 100}), b)

	ch.Transmit(ra, bcastFrame(0), nil)
	sched.After(100*sim.Microsecond, func() {
		ch.Transmit(rb, bcastFrame(1), nil)
	})
	sched.Run()

	// Both are in each other's range and overlapped: neither decodes.
	if len(a.delivered) != 0 || len(b.delivered) != 0 {
		t.Errorf("half-duplex violation: a=%d b=%d decoded", len(a.delivered), len(b.delivered))
	}
}

func TestBackToBackTransmissionsDoNotCollide(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	a, b := &fakeListener{}, &fakeListener{}
	ra := ch.Attach(static(geom.Point{X: 0}), a)
	rb := ch.Attach(static(geom.Point{X: 100}), b)

	air := ch.Timing().Airtime(280)
	ch.Transmit(ra, bcastFrame(0), nil)
	// Second frame starts exactly when the first ends (FIFO ordering on
	// the same instant: the finish event was scheduled first).
	sched.Schedule(sim.Time(air), func() {
		ch.Transmit(rb, bcastFrame(1), nil)
	})
	sched.Run()

	if len(b.delivered) != 1 {
		t.Errorf("b decoded %d, want 1", len(b.delivered))
	}
	if len(a.delivered) != 1 {
		t.Errorf("a decoded %d, want 1 (back-to-back, no overlap)", len(a.delivered))
	}
}

func TestDoubleTransmitPanics(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	a := &fakeListener{}
	ra := ch.Attach(static(geom.Point{}), a)
	ch.Transmit(ra, bcastFrame(0), nil)
	defer func() {
		if recover() == nil {
			t.Error("transmitting while already transmitting did not panic")
		}
	}()
	ch.Transmit(ra, bcastFrame(0), nil)
}

func TestInRangeAndPositions(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	a := ch.Attach(static(geom.Point{X: 0}), &fakeListener{})
	b := ch.Attach(static(geom.Point{X: 500}), &fakeListener{})
	ch.Attach(static(geom.Point{X: 501}), &fakeListener{})
	// b sits exactly r from a and is in range; c is just beyond it.
	if got := ch.Neighbors(a, nil); !slices.Equal(got, []int{b}) {
		t.Errorf("Neighbors(a) = %v, want [%d]", got, b)
	}
	if len(ch.positions) != 3 {
		t.Errorf("%d radios attached, want 3", len(ch.positions))
	}
	if got := ch.PositionOf(b); got != (geom.Point{X: 500}) {
		t.Errorf("PositionOf = %+v", got)
	}
}

func TestThreeWayCollision(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	recv := &fakeListener{}
	ch.Attach(static(geom.Point{X: 0, Y: 0}), recv)
	var senders []int
	for i := 0; i < 3; i++ {
		senders = append(senders, ch.Attach(static(geom.Point{X: float64(i+1) * 50}), &fakeListener{}))
	}
	for i, s := range senders {
		s := s
		sched.After(sim.Duration(i*200)*sim.Microsecond, func() {
			ch.Transmit(s, bcastFrame(packet.NodeID(s)), nil)
		})
	}
	sched.Run()
	if len(recv.delivered) != 0 {
		t.Errorf("receiver decoded %d of 3 overlapping frames", len(recv.delivered))
	}
	if len(recv.garbled) != 3 {
		t.Errorf("receiver saw %d garbled, want 3", len(recv.garbled))
	}
}

func TestAttachValidation(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	defer func() {
		if recover() == nil {
			t.Error("Attach(nil, nil) did not panic")
		}
	}()
	ch.Attach(nil, nil)
}

func TestNewChannelValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewChannel with radius 0 did not panic")
		}
	}()
	NewChannel(sim.NewScheduler(), DSSSTiming(), 0)
}
