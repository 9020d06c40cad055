package phy

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

func TestCaptureStrongerFrameSurvives(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	ch.SetCapture(4) // 6 dB: survive if >= 2x closer
	// Receiver at 0. Near sender at 100 m, far sender at 450 m:
	// squared-distance ratio 20.25 >= 4, so the near frame captures.
	recv := &fakeListener{}
	ch.Attach(static(geom.Point{}), recv)
	near := ch.Attach(static(geom.Point{X: 100}), &fakeListener{})
	far := ch.Attach(static(geom.Point{X: -450}), &fakeListener{})

	ch.Transmit(near, bcastFrame(1), nil)
	sched.After(500*sim.Microsecond, func() {
		ch.Transmit(far, bcastFrame(2), nil)
	})
	sched.Run()

	if len(recv.delivered) != 1 || recv.delivered[0].Sender != 1 {
		t.Fatalf("capture failed: delivered %d frames", len(recv.delivered))
	}
	if len(recv.garbled) != 1 || recv.garbled[0].Sender != 2 {
		t.Errorf("far frame should be the garbled one")
	}
}

func TestCaptureComparablePowersStillCollide(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	ch.SetCapture(4)
	recv := &fakeListener{}
	ch.Attach(static(geom.Point{}), recv)
	a := ch.Attach(static(geom.Point{X: 300}), &fakeListener{})
	b := ch.Attach(static(geom.Point{X: -400}), &fakeListener{})

	ch.Transmit(a, bcastFrame(1), nil)
	sched.After(500*sim.Microsecond, func() {
		ch.Transmit(b, bcastFrame(2), nil)
	})
	sched.Run()

	// (400/300)^2 = 1.78 < 4: neither captures.
	if len(recv.delivered) != 0 {
		t.Errorf("comparable-power overlap decoded %d frames", len(recv.delivered))
	}
	if len(recv.garbled) != 2 {
		t.Errorf("garbled = %d, want 2", len(recv.garbled))
	}
}

func TestCaptureOffByDefault(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	recv := &fakeListener{}
	ch.Attach(static(geom.Point{}), recv)
	near := ch.Attach(static(geom.Point{X: 50}), &fakeListener{})
	far := ch.Attach(static(geom.Point{X: -490}), &fakeListener{})
	ch.Transmit(near, bcastFrame(1), nil)
	sched.After(500*sim.Microsecond, func() {
		ch.Transmit(far, bcastFrame(2), nil)
	})
	sched.Run()
	if len(recv.delivered) != 0 {
		t.Error("paper model must garble both regardless of power imbalance")
	}
}

func TestSetCaptureValidation(t *testing.T) {
	ch := NewChannel(sim.NewScheduler(), DSSSTiming(), 500)
	defer func() {
		if recover() == nil {
			t.Error("ratio 1.0 did not panic")
		}
	}()
	ch.SetCapture(1.0)
}
