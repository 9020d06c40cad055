package mac

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/sim"
)

func dataFrame(src, dst packet.NodeID) *packet.Frame {
	return packet.NewData(src, dst, 100, "payload", geom.Point{})
}

func TestUnicastGetsAcked(t *testing.T) {
	r := newRig(geom.Point{X: 0}, geom.Point{X: 100})
	var delivered int
	r.macs[1].Upper = ReceiverFunc(func(f *packet.Frame) {
		if f.Kind != packet.KindData {
			t.Errorf("host layer saw %v frame", f.Kind)
		}
		delivered++
	})
	var done bool
	p := r.macs[0].Enqueue(dataFrame(0, 1), TxFuncs{Done: func() { done = true }})
	r.sched.Run()

	if delivered != 1 {
		t.Errorf("delivered %d, want 1", delivered)
	}
	if !done {
		t.Error("sender's OnDone never fired")
	}
	if p.Failed() {
		t.Error("acked frame marked failed")
	}
	if r.macs[1].Stats().AcksSent != 1 {
		t.Errorf("receiver sent %d ACKs, want 1", r.macs[1].Stats().AcksSent)
	}
	if r.macs[0].Stats().Retries != 0 {
		t.Errorf("sender retried %d times despite clean channel", r.macs[0].Stats().Retries)
	}
}

func TestAcksInvisibleToHostLayer(t *testing.T) {
	r := newRig(geom.Point{X: 0}, geom.Point{X: 100})
	var kinds []packet.Kind
	r.macs[0].Upper = ReceiverFunc(func(f *packet.Frame) { kinds = append(kinds, f.Kind) })
	r.macs[1].Upper = ReceiverFunc(func(*packet.Frame) {})
	r.macs[0].Enqueue(dataFrame(0, 1), nil)
	r.sched.Run()
	for _, k := range kinds {
		if k == packet.KindAck {
			t.Error("ACK leaked to the host layer")
		}
	}
}

func TestUnicastToAbsentHostRetriesAndDrops(t *testing.T) {
	// Destination out of range: no ACK ever comes back.
	r := newRig(geom.Point{X: 0}, geom.Point{X: 5000})
	var done bool
	p := r.macs[0].Enqueue(dataFrame(0, 1), TxFuncs{Done: func() { done = true }})
	r.sched.Run()

	if !p.Failed() {
		t.Error("unreachable unicast not marked failed")
	}
	if !done {
		t.Error("OnDone not fired on drop")
	}
	st := r.macs[0].Stats()
	if st.Retries != RetryLimit {
		t.Errorf("retries = %d, want %d", st.Retries, RetryLimit)
	}
	if st.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", st.Dropped)
	}
	// 1 initial + RetryLimit retransmissions.
	if st.Sent != 1+RetryLimit {
		t.Errorf("sent = %d, want %d", st.Sent, 1+RetryLimit)
	}
}

func TestOnStartFiresOnceAcrossRetries(t *testing.T) {
	r := newRig(geom.Point{X: 0}, geom.Point{X: 5000})
	starts := 0
	r.macs[0].Enqueue(dataFrame(0, 1), TxFuncs{Start: func() { starts++ }})
	r.sched.Run()
	if starts != 1 {
		t.Errorf("OnStart fired %d times across retries, want 1", starts)
	}
}

func TestBroadcastNeverAwaitsAck(t *testing.T) {
	r := newRig(geom.Point{X: 0}, geom.Point{X: 100})
	r.macs[1].Upper = ReceiverFunc(func(*packet.Frame) {})
	r.macs[0].Enqueue(frame(0, 1), nil)
	r.sched.Run()
	st := r.macs[0].Stats()
	if st.Retries != 0 || st.Dropped != 0 {
		t.Errorf("broadcast frame entered the ARQ path: %+v", st)
	}
	if r.macs[1].Stats().AcksSent != 0 {
		t.Error("broadcast was acknowledged")
	}
}

func TestUnicastChainUnderContention(t *testing.T) {
	// Three hosts in range; 0 and 2 both unicast to 1 while a broadcast
	// storm runs. With ARQ every data frame must eventually arrive.
	r := newRig(geom.Point{X: 0}, geom.Point{X: 100}, geom.Point{X: 200})
	got := map[packet.NodeID]int{}
	r.macs[1].Upper = ReceiverFunc(func(f *packet.Frame) {
		if f.Kind == packet.KindData && f.Dest == 1 {
			got[f.Sender]++
		}
	})
	r.macs[2].Upper = ReceiverFunc(func(*packet.Frame) {})
	r.macs[0].Upper = ReceiverFunc(func(*packet.Frame) {})
	for i := 0; i < 5; i++ {
		r.macs[0].Enqueue(dataFrame(0, 1), nil)
		r.macs[2].Enqueue(dataFrame(2, 1), nil)
		r.macs[1].Enqueue(frame(1, uint32(i)), nil) // interfering broadcasts
	}
	r.sched.Run()
	if got[0] != 5 || got[2] != 5 {
		t.Errorf("unicasts delivered: from0=%d from2=%d, want 5 each (ARQ)", got[0], got[2])
	}
}

func TestSetAddr(t *testing.T) {
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, phy.DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	m := New(sched, ch, phy.PositionFunc(func(sim.Time) geom.Point { return geom.Point{} }), sim.NewRNG(1))
	if m.Addr() != packet.NodeID(m.Radio()) {
		t.Error("default addr != radio index")
	}
	m.SetAddr(42)
	if m.Addr() != 42 {
		t.Error("SetAddr failed")
	}
}
