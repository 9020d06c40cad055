package phy

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/sim"
)

// engines are the two ways a test puts a frame on the air: the
// channel's own Transmit, which resolves overlap only against the
// active flights whose senders lie within interference reach, and
// transmitGlobal, the reference that scans every active flight. Every
// collision edge case must behave identically on both.
var engines = []struct {
	name     string
	transmit func(ch *Channel, radio int, f *packet.Frame)
}{
	{"localized", func(ch *Channel, radio int, f *packet.Frame) { ch.Transmit(radio, f, nil) }},
	{"global-bitset", transmitGlobal},
}

// transmitGlobal is the reference the localized overlap scan is held
// to: Transmit with the receivers found by a linear scan over live
// positions and overlap resolved against every active transmission, so
// no snapshot, reach prefilter or speed bound takes part.
func transmitGlobal(c *Channel, radio int, f *packet.Frame) {
	now := c.sched.Now()
	tx := c.newTransmission(&c.chLane, f, radio, now, now.Add(c.timing.Airtime(f.Bytes)))
	c.stats.Transmissions++
	c.transmitting[radio] = true
	tx.senderPos = c.positions[radio].PositionAt(now)
	tx.receivers = append(tx.receivers, linearNeighbors(c, radio, now)...)
	for _, i := range tx.receivers {
		tx.recvSet.Add(packet.NodeID(i))
	}
	for _, other := range c.active {
		c.resolveAgainst(tx, other, now)
	}
	for _, i := range tx.receivers {
		if c.transmitting[i] {
			tx.garble(i)
		}
	}
	c.active = append(c.active, tx)
	c.raiseBusy(radio)
	for _, i := range tx.receivers {
		c.raiseBusy(i)
	}
	tx.endEvent = c.sched.ScheduleRunner(tx.end, tx)
}

// The capture comparison is >= on both branches, so an exact power tie
// with the threshold resolves in favor of the frame tested first: when
// db == da*ratio the earlier frame a captures, and when da == db*ratio
// the later frame b captures. The tie behavior is part of the pinned
// model; both engines must agree on it.
func TestCaptureTieBoundaryEarlierFrameCaptures(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			ch := NewChannel(sched, DSSSTiming(), 500)
			ch.SetMaxSpeed(0)
			ch.SetCapture(4)
			recv := &fakeListener{}
			ch.Attach(static(geom.Point{}), recv)
			// da = 100^2, db = 200^2: db == da*4 exactly.
			a := ch.Attach(static(geom.Point{X: 100}), &fakeListener{})
			b := ch.Attach(static(geom.Point{X: -200}), &fakeListener{})

			eng.transmit(ch, a, bcastFrame(1))
			sched.After(500*sim.Microsecond, func() {
				eng.transmit(ch, b, bcastFrame(2))
			})
			sched.Run()

			if len(recv.delivered) != 1 || recv.delivered[0].Sender != 1 {
				t.Fatalf("tie db == da*ratio must let the earlier frame capture; delivered %d", len(recv.delivered))
			}
			if len(recv.garbled) != 1 || recv.garbled[0].Sender != 2 {
				t.Fatalf("later frame should be the garbled one")
			}
		})
	}
}

func TestCaptureTieBoundaryLaterFrameCaptures(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			ch := NewChannel(sched, DSSSTiming(), 500)
			ch.SetMaxSpeed(0)
			ch.SetCapture(4)
			recv := &fakeListener{}
			ch.Attach(static(geom.Point{}), recv)
			// da = 200^2, db = 100^2: da == db*4 exactly.
			a := ch.Attach(static(geom.Point{X: 200}), &fakeListener{})
			b := ch.Attach(static(geom.Point{X: -100}), &fakeListener{})

			eng.transmit(ch, a, bcastFrame(1))
			sched.After(500*sim.Microsecond, func() {
				eng.transmit(ch, b, bcastFrame(2))
			})
			sched.Run()

			if len(recv.delivered) != 1 || recv.delivered[0].Sender != 2 {
				t.Fatalf("tie da == db*ratio must let the later frame capture; delivered %d", len(recv.delivered))
			}
			if len(recv.garbled) != 1 || recv.garbled[0].Sender != 1 {
				t.Fatalf("earlier frame should be the garbled one")
			}
		})
	}
}

// Two in-range hosts whose transmissions overlap are each both sender
// and intended receiver of the other's frame: half-duplex must destroy
// both copies — even under capture, where power would otherwise let one
// frame through.
func TestHalfDuplexSenderAsReceiver(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			ch := NewChannel(sched, DSSSTiming(), 500)
			ch.SetMaxSpeed(0)
			ch.SetCapture(1000) // capture must not override half-duplex
			a, b := &fakeListener{}, &fakeListener{}
			ra := ch.Attach(static(geom.Point{X: 0}), a)
			rb := ch.Attach(static(geom.Point{X: 100}), b)

			eng.transmit(ch, ra, bcastFrame(1))
			sched.After(500*sim.Microsecond, func() {
				eng.transmit(ch, rb, bcastFrame(2))
			})
			sched.Run()

			if len(a.delivered) != 0 || len(b.delivered) != 0 {
				t.Fatalf("half-duplex violation: a=%d b=%d decoded", len(a.delivered), len(b.delivered))
			}
			if len(a.garbled) != 1 || len(b.garbled) != 1 {
				t.Fatalf("garbled counts a=%d b=%d, want 1 each", len(a.garbled), len(b.garbled))
			}
		})
	}
}

// A receiver that is itself mid-transmission cannot decode a new frame
// even when its own flight's receiver set does not cover the new sender
// (here because it moved into range after its flight started). This is
// the c.transmitting check, distinct from the half-duplex overlap rules.
func TestReceiverAlreadyTransmitting(t *testing.T) {
	const speed = 500000 // m/s; absurd, but it keeps the test fast
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			ch := NewChannel(sched, DSSSTiming(), 500)
			ch.SetMaxSpeed(speed)

			// r starts at X=1200 (out of s's range) moving toward s; by
			// t=1500us it is at X=450, inside. c sits near r's start so r's
			// own flight has a receiver; d hears only s.
			rl, sl, cl, dl := &fakeListener{}, &fakeListener{}, &fakeListener{}, &fakeListener{}
			r := ch.Attach(PositionFunc(func(t sim.Time) geom.Point {
				return geom.Point{X: 1200 - speed*t.Sub(0).Seconds()}
			}), rl)
			s := ch.Attach(static(geom.Point{X: 0}), sl)
			ch.Attach(static(geom.Point{X: 1600}), cl)
			ch.Attach(static(geom.Point{X: -400}), dl)

			eng.transmit(ch, r, bcastFrame(1))
			sched.After(1500*sim.Microsecond, func() {
				eng.transmit(ch, s, bcastFrame(2))
			})
			sched.Run()

			if len(rl.garbled) != 1 || rl.garbled[0].Sender != 2 {
				t.Fatalf("transmitting receiver must lose the new frame: garbled=%d", len(rl.garbled))
			}
			if len(rl.delivered) != 0 {
				t.Fatalf("transmitting receiver decoded a frame mid-flight")
			}
			if len(dl.delivered) != 1 {
				t.Fatalf("bystander of the new frame should decode it: got %d", len(dl.delivered))
			}
			if len(cl.delivered) != 1 {
				t.Fatalf("receiver of the first flight should decode it: got %d", len(cl.delivered))
			}
		})
	}
}

// recLogListener records every callback with its receiver, kind, sender,
// and timestamp into a shared log, giving a total per-copy outcome trace
// two channel runs can be compared on.
type recLogListener struct {
	ch  *Channel
	id  int
	log *[]string
}

func (l *recLogListener) CarrierBusy() {}
func (l *recLogListener) CarrierIdle() {}
func (l *recLogListener) Deliver(f *packet.Frame) {
	*l.log = append(*l.log, fmt.Sprintf("t=%d rx=%d ok from=%d", l.ch.sched.Now(), l.id, f.Sender))
}
func (l *recLogListener) DeliverGarbled(f *packet.Frame) {
	*l.log = append(*l.log, fmt.Sprintf("t=%d rx=%d garbled from=%d", l.ch.sched.Now(), l.id, f.Sender))
}

// txScript is a precomputed offered load: transmission k starts at
// start[k] from host host[k]. Start times respect the airtime so no host
// transmits twice at once.
type txScript struct {
	start []sim.Time
	host  []int
}

// genScript draws a random saturating schedule over the given horizon.
func genScript(rng *rand.Rand, hosts int, attempts int, horizon sim.Duration, air sim.Duration) txScript {
	busyUntil := make([]sim.Time, hosts)
	type ev struct {
		at sim.Time
		h  int
	}
	var evs []ev
	for k := 0; k < attempts; k++ {
		at := sim.Time(rng.Int63n(int64(horizon)))
		h := rng.Intn(hosts)
		if at < busyUntil[h] {
			continue
		}
		busyUntil[h] = at.Add(air)
		evs = append(evs, ev{at, h})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	s := txScript{}
	for _, e := range evs {
		s.start = append(s.start, e.at)
		s.host = append(s.host, e.h)
	}
	return s
}

// runScript drives one channel with the given speed bound through the
// script, putting each frame on the air with transmit, and returns the
// full per-copy outcome log plus the channel stats.
func runScript(hosts int, mkPos func(i int) PositionFunc, capture, bound float64, transmit func(*Channel, int, *packet.Frame), script txScript) ([]string, Stats) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, DSSSTiming(), 500)
	ch.SetMaxSpeed(bound)
	if capture > 0 {
		ch.SetCapture(capture)
	}
	var log []string
	for i := 0; i < hosts; i++ {
		ch.Attach(mkPos(i), &recLogListener{ch: ch, id: i, log: &log})
	}
	for k := range script.start {
		k := k
		sched.Schedule(script.start[k], func() {
			transmit(ch, script.host[k], bcastFrame(packet.NodeID(script.host[k])))
		})
	}
	sched.Run()
	return log, ch.Stats()
}

// diffAgainstGlobal runs the script through the channel's Transmit and
// through the reference transmitGlobal (linear-scan receivers, every
// active transmission checked) and requires identical per-copy outcome
// logs and stats.
func diffAgainstGlobal(t *testing.T, hosts int, mkPos func(i int) PositionFunc, capture, bound float64, script txScript) {
	t.Helper()
	refLog, refStats := runScript(hosts, mkPos, capture, bound, transmitGlobal, script)
	if refStats.Collisions == 0 {
		t.Fatalf("script produced no collisions; differential test is vacuous")
	}
	log, stats := runScript(hosts, mkPos, capture, bound, engines[0].transmit, script)
	if stats != refStats {
		t.Fatalf("localized stats diverge from global scan:\n%+v\nvs\n%+v", stats, refStats)
	}
	if len(log) != len(refLog) {
		t.Fatalf("localized: %d outcomes vs global scan %d", len(log), len(refLog))
	}
	for i := range log {
		if log[i] != refLog[i] {
			t.Fatalf("outcome %d diverges:\n%s\nvs global scan\n%s", i, log[i], refLog[i])
		}
	}
}

// TestInterferenceDifferentialMegaMap repeats the engine cross-check on
// a map far wider than the interference reach, with hosts clustered into
// distant patches so collisions occur locally while most concurrent
// flights are out of reach of each other. This pins the reach prefilter
// against the global scan in the regime where it both accepts and
// rejects: skipping the distant flights must change no outcome.
func TestInterferenceDifferentialMegaMap(t *testing.T) {
	const (
		side     = 60000.0 // 120x120 fine cells at radius 500
		clusters = 8
		perClust = 12
		speed    = 20.0
	)
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			hosts := clusters * perClust
			type traj struct {
				p0     geom.Point
				vx, vy float64
			}
			trajs := make([]traj, 0, hosts)
			for c := 0; c < clusters; c++ {
				center := geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
				for k := 0; k < perClust; k++ {
					trajs = append(trajs, traj{
						p0: geom.Point{
							X: center.X + (rng.Float64()*2-1)*300,
							Y: center.Y + (rng.Float64()*2-1)*300,
						},
						vx: (rng.Float64()*2 - 1) * speed,
						vy: (rng.Float64()*2 - 1) * speed,
					})
				}
			}
			mkPos := func(i int) PositionFunc {
				tr := trajs[i]
				return func(t sim.Time) geom.Point {
					s := t.Sub(0).Seconds()
					return geom.Point{X: tr.p0.X + tr.vx*s, Y: tr.p0.Y + tr.vy*s}
				}
			}
			air := DSSSTiming().Airtime(280)
			script := genScript(rng, hosts, 500, 40000*sim.Microsecond, air)

			diffAgainstGlobal(t, hosts, mkPos, 0, speed, script)
			// The regime check: some transmission must find concurrent
			// flights on both sides of the prefilter's reach, or the test
			// does not exercise the skip.
			var near, far int
			probe := func(ch *Channel, radio int, f *packet.Frame) {
				pos := ch.positions[radio].PositionAt(ch.sched.Now())
				reach := 2*ch.radius + ch.speedBound*air.Seconds() + driftEpsilon
				for _, o := range ch.active {
					if o.senderPos.Dist2(pos) <= reach*reach {
						near++
					} else {
						far++
					}
				}
				ch.Transmit(radio, f, nil)
			}
			runScript(hosts, mkPos, 0, speed, probe, script)
			if near == 0 || far == 0 {
				t.Fatalf("prefilter not exercised both ways: %d concurrent flights within reach, %d beyond", near, far)
			}
		})
	}
}

// TestInterferenceDifferential cross-checks the two overlap engines on
// randomized saturating traffic: same seeds, same scripts, same mover
// trajectories — every per-receiver copy outcome (delivered vs garbled,
// ordered by time) and every channel counter must be identical across
// engines, for sparse and dense maps, capture on and off, static and
// mobile hosts.
func TestInterferenceDifferential(t *testing.T) {
	const speed = 20.0 // m/s mover bound
	grids := []struct {
		name  string
		hosts int
		side  float64
	}{
		{"sparse", 30, 2000},
		{"dense", 80, 1200},
	}
	for _, g := range grids {
		for _, capture := range []float64{0, 4} {
			for _, mobile := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/capture=%v/mobile=%v/seed=%d", g.name, capture > 0, mobile, seed)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(seed))
						type traj struct {
							p0     geom.Point
							vx, vy float64
						}
						trajs := make([]traj, g.hosts)
						for i := range trajs {
							trajs[i].p0 = geom.Point{X: rng.Float64() * g.side, Y: rng.Float64() * g.side}
							if mobile {
								trajs[i].vx = (rng.Float64()*2 - 1) * speed
								trajs[i].vy = (rng.Float64()*2 - 1) * speed
							}
						}
						mkPos := func(i int) PositionFunc {
							tr := trajs[i]
							return func(t sim.Time) geom.Point {
								s := t.Sub(0).Seconds()
								return geom.Point{X: tr.p0.X + tr.vx*s, Y: tr.p0.Y + tr.vy*s}
							}
						}
						air := DSSSTiming().Airtime(280)
						script := genScript(rng, g.hosts, 400, 40000*sim.Microsecond, air)

						bound := 0.0
						if mobile {
							bound = speed
						}
						diffAgainstGlobal(t, g.hosts, mkPos, capture, bound, script)
					})
				}
			}
		}
	}
}
