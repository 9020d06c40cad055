package phy

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

func TestLossRateDropsExpectedFraction(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	ch.SetLoss(0.3, sim.NewRNG(9))
	recv := &fakeListener{}
	tx := ch.Attach(static(geom.Point{}), &fakeListener{})
	ch.Attach(static(geom.Point{X: 100}), recv)

	const frames = 2000
	for i := 0; i < frames; i++ {
		i := i
		sched.Schedule(sim.Time(i)*sim.Time(3*sim.Millisecond), func() {
			ch.Transmit(tx, bcastFrame(0), nil)
		})
		_ = i
	}
	sched.Run()

	got := float64(len(recv.delivered)) / frames
	if math.Abs(got-0.7) > 0.05 {
		t.Errorf("delivery fraction = %v, want ~0.7 at loss rate 0.3", got)
	}
	st := ch.Stats()
	if st.Lost+st.Deliveries != frames {
		t.Errorf("lost %d + delivered %d != %d", st.Lost, st.Deliveries, frames)
	}
	if len(recv.garbled) != 0 {
		t.Error("loss produced garbled callbacks; it must be silent")
	}
}

func TestZeroLossDeliversEverything(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	ch.SetMaxSpeed(0)
	recv := &fakeListener{}
	tx := ch.Attach(static(geom.Point{}), &fakeListener{})
	ch.Attach(static(geom.Point{X: 100}), recv)
	for i := 0; i < 50; i++ {
		i := i
		sched.Schedule(sim.Time(i)*sim.Time(3*sim.Millisecond), func() {
			ch.Transmit(tx, bcastFrame(0), nil)
		})
	}
	sched.Run()
	if len(recv.delivered) != 50 {
		t.Errorf("delivered %d of 50 without loss model", len(recv.delivered))
	}
	if ch.Stats().Lost != 0 {
		t.Errorf("lost = %d without loss model", ch.Stats().Lost)
	}
}

func TestSetLossValidation(t *testing.T) {
	ch := NewChannel(sim.NewScheduler(), DSSSTiming(), 500)
	for _, rate := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetLoss(%v) did not panic", rate)
				}
			}()
			ch.SetLoss(rate, sim.NewRNG(1))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetLoss with nil rng did not panic")
			}
		}()
		ch.SetLoss(0.5, nil)
	}()
	// Rate 0 with nil rng is fine (disables the model).
	ch.SetLoss(0, nil)
}
