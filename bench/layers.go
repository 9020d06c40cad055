package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/manet"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/neighbor"
	"repro/internal/nodeset"
	"repro/internal/packet"
	"repro/internal/pdes"
	"repro/internal/phy"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// The layer drivers time calls into each layer's public functions with
// inputs taken from the workload, so one driver yields a different
// number per workload.

const (
	driverBatches = 11                   // timed batches per driver; the median is reported
	driverBatch   = 2 * time.Millisecond // a batch grows until it takes about this long
	snapshotHosts = 1000                 // the snapshot drivers cap the world at this many hosts
)

// driverInput is what the drivers take from the workload.
type driverInput struct {
	cfg      manet.Config // the workload's first simulation, defaults filled
	pts      []geom.Point // its placement, or a uniform one of the same size over the same map
	depth    int          // scheduler pending depth at construction
	fanout   int          // mean receivers per transmission, at least 1
	requests int
	seed     uint64
}

// sink keeps results alive so the compiler cannot drop a timed call.
var sink any

// timeOp times op, which performs n operations per call. It doubles n
// until a batch takes about driverBatch, then reports the median ns/op of
// driverBatches batches and the allocations per op over all of them.
func timeOp(op func(n int)) (ns, allocs float64) {
	n := 1
	for {
		t := time.Now()
		op(n)
		if time.Since(t) >= driverBatch || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	per := make(sample, driverBatches)
	for i := range per {
		t := time.Now()
		op(n)
		per[i] = float64(time.Since(t)) / float64(n)
	}
	runtime.ReadMemStats(&ms1)
	return per.median(), float64(ms1.Mallocs-ms0.Mallocs) / float64(n*driverBatches)
}

// runDrivers runs every layer driver and stores its numbers in out.
func runDrivers(in driverInput, out map[string]float64) error {
	simDrivers(in, out)
	hood := geomDrivers(in, out)
	mobilityDrivers(in, out)
	phyDrivers(in, out)
	macDriver(in, out)
	neighborDrivers(in, out)
	nodesetDriver(in, out)
	schemeDrivers(in, hood, out)
	metricsDrivers(in, out)
	pdesDrivers(in, out)
	return snapshotDrivers(in, out)
}

// simDrivers time the scheduler at the workload's pending depth: hold is
// one Step whose event re-arms itself, the kernel's steady state; cancel
// is one Schedule and Cancel against the same standing load.
func simDrivers(in driverInput, out map[string]float64) {
	s := sim.NewScheduler()
	rng := sim.NewRNG(in.seed)
	const horizon = sim.Second
	var rearm func()
	rearm = func() { s.After(rng.UniformDuration(0, horizon), rearm) }
	for i := 0; i < in.depth; i++ {
		s.After(rng.UniformDuration(0, horizon), rearm)
	}
	for i := 0; i < 2*in.depth; i++ {
		s.Step() // reach pool and rung steady state before measuring
	}
	out["sim.hold_ns"], out["sim.hold_allocs"] = timeOp(func(n int) {
		for i := 0; i < n; i++ {
			s.Step()
		}
	})
	nop := func() {}
	out["sim.cancel_ns"], _ = timeOp(func(n int) {
		for i := 0; i < n; i++ {
			s.Cancel(s.After(rng.UniformDuration(0, horizon), nop))
			if i%1024 == 1023 {
				// Consume a slice of the timeline so tombstones are
				// recycled instead of piling up.
				s.RunUntil(s.Now().Add(10 * sim.Millisecond))
			}
		}
	})
}

// neighbourhood is one host of the placement with the positions of hosts
// in its radio range, padded with points on a ring when the placement
// gives it fewer than it needs.
type neighbourhood struct {
	center geom.Point
	nbrs   []geom.Point
}

// pickNeighbourhood returns the placement's host whose in-range count is
// nearest the workload's fan-out, with at least want neighbours.
func pickNeighbourhood(g *geom.Grid, in driverInput, want int) neighbourhood {
	best, bestGap := 0, math.MaxInt
	var buf []int
	for i := 0; i < len(in.pts) && i < 4096; i++ {
		buf = g.Neighbors(i, in.cfg.Radius, buf[:0])
		if gap := abs(len(buf) - in.fanout); gap < bestGap {
			best, bestGap = i, gap
		}
	}
	h := neighbourhood{center: in.pts[best]}
	for _, j := range g.Neighbors(best, in.cfg.Radius, buf[:0]) {
		h.nbrs = append(h.nbrs, in.pts[j])
	}
	for k := len(h.nbrs); k < want; k++ {
		a := 2 * math.Pi * float64(k) / float64(want)
		h.nbrs = append(h.nbrs, geom.Point{
			X: h.center.X + in.cfg.Radius/2*math.Cos(a),
			Y: h.center.Y + in.cfg.Radius/2*math.Sin(a),
		})
	}
	return h
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// geomDrivers time the spatial grid over the workload's placement and
// the location schemes' coverage estimate at the judge's resolution with
// three senders. It returns the neighbourhood the scheme drivers reuse.
func geomDrivers(in driverInput, out map[string]float64) neighbourhood {
	var g geom.Grid
	r := in.cfg.Radius
	ns, _ := timeOp(func(n int) {
		for i := 0; i < n; i++ {
			g.Rebuild(in.pts, r)
		}
	})
	out["geom.grid_rebuild_ns_per_host"] = ns / float64(len(in.pts))
	var buf []int
	k := 0
	out["geom.grid_within_ns"], _ = timeOp(func(n int) {
		for i := 0; i < n; i++ {
			buf = g.Within(in.pts[k%len(in.pts)], r, buf[:0])
			k++
		}
	})
	hood := pickNeighbourhood(&g, in, 4)
	out["geom.uncovered_ns"], _ = timeOp(func(n int) {
		for i := 0; i < n; i++ {
			sink = geom.UncoveredFraction(hood.center, hood.nbrs[:3], r, scheme.CoverageResolution)
		}
	})
	return hood
}

// mobilityDrivers time the random-turn model at the workload's
// population and speed: one turn event, and one position read. A static
// world has no movers to time.
func mobilityDrivers(in driverInput, out map[string]float64) {
	speed := in.cfg.MaxSpeedMPS()
	if speed == 0 {
		return
	}
	s := sim.NewScheduler()
	rng := sim.NewRNG(in.seed)
	area := mobility.NewSquareMap(in.cfg.MapUnits, in.cfg.UnitMeters)
	mc := mobility.DefaultConfig(speed * 3.6)
	roamers := make([]*mobility.Roamer, len(in.pts))
	for i := range roamers {
		roamers[i] = mobility.NewRoamer(s, area, mc, rng.Fork(uint64(i)))
	}
	out["mobility.turn_ns"], _ = timeOp(func(n int) {
		for i := 0; i < n; i++ {
			s.Step() // the only pending events are turns
		}
	})
	k := 0
	out["mobility.position_ns"], _ = timeOp(func(n int) {
		for i := 0; i < n; i++ {
			sink = roamers[k%len(roamers)].Position()
			k++
		}
	})
}

// nopListener discards channel callbacks: the phy drivers measure the
// medium itself, not a MAC.
type nopListener struct{}

func (nopListener) CarrierBusy()                 {}
func (nopListener) CarrierIdle()                 {}
func (nopListener) Deliver(*packet.Frame)        {}
func (nopListener) DeliverGarbled(*packet.Frame) {}

// staticChannel attaches one radio per placed host. skip, if not
// negative, leaves that host's radio to the caller.
func staticChannel(in driverInput, s *sim.Scheduler, skip int) *phy.Channel {
	ch := phy.NewChannel(s, phy.DSSSTiming(), in.cfg.Radius)
	ch.SetMaxSpeed(0)
	for i, p := range in.pts {
		if i == skip {
			continue
		}
		p := p
		ch.Attach(phy.PositionFunc(func(sim.Time) geom.Point { return p }), nopListener{})
	}
	return ch
}

// phyDrivers time Channel.Transmit, one uncontended broadcast frame at a
// time from senders spread over the placement, each run to the end of
// its airtime, and the channel's neighbour query.
func phyDrivers(in driverInput, out map[string]float64) {
	s := sim.NewScheduler()
	ch := staticChannel(in, s, -1)
	senders := min(len(in.pts), 1024)
	frames := make([]*packet.Frame, senders)
	radios := make([]int, senders)
	for i := range frames {
		radios[i] = i * len(in.pts) / senders
		id := packet.NodeID(radios[i])
		frames[i] = packet.NewBroadcast(packet.BroadcastID{Source: id, Seq: 1}, id, in.pts[radios[i]])
	}
	gap := ch.Timing().Airtime(packet.BroadcastBytes) + sim.Millisecond
	k := 0
	var before phy.Stats
	transmit := func(n int) {
		before = ch.Stats()
		for i := 0; i < n; i++ {
			ch.Transmit(radios[k%senders], frames[k%senders], nil)
			s.RunUntil(s.Now().Add(gap))
			k++
		}
	}
	ns, allocs := timeOp(transmit)
	out["phy.transmit_ns"], out["phy.transmit_allocs"] = ns, allocs
	after := ch.Stats()
	if rx := after.Deliveries - before.Deliveries; rx > 0 {
		out["phy.transmit_ns_per_receiver"] = ns * float64(after.Transmissions-before.Transmissions) / float64(rx)
	}
	var buf []int
	out["phy.neighbors_ns"], _ = timeOp(func(n int) {
		for i := 0; i < n; i++ {
			buf = ch.Neighbors(k%len(in.pts), buf[:0])
			k++
		}
	})
}

// macDriver times one broadcast frame from Enqueue to the end of its
// transmission on an idle medium: carrier sense, backoff, the channel
// and the completion callbacks.
func macDriver(in driverInput, out map[string]float64) {
	s := sim.NewScheduler()
	ch := staticChannel(in, s, 0)
	at := in.pts[0]
	m := mac.New(s, ch, phy.PositionFunc(func(sim.Time) geom.Point { return at }), sim.NewRNG(in.seed))
	f := packet.NewBroadcast(packet.BroadcastID{Source: m.Addr(), Seq: 1}, m.Addr(), at)
	out["mac.enqueue_to_done_ns"], _ = timeOp(func(n int) {
		for i := 0; i < n; i++ {
			m.Enqueue(f, nil)
			s.Run() // nothing else is scheduled: returns once the frame is done
		}
	})
}

// neighborDrivers time a host's table at the workload's fan-out: every
// neighbour is heard once a simulated second with a two-hop list of
// fan-out entries, so expiry timers are cancelled and re-armed at the
// rate the run sees.
func neighborDrivers(in driverInput, out map[string]float64) {
	s := sim.NewScheduler()
	t := neighbor.NewDenseTable(0, s, neighbor.DefaultExpiryIntervals, len(in.pts))
	f := min(in.fanout, len(in.pts)-1)
	ids := make([]packet.NodeID, f)
	for i := range ids {
		ids[i] = packet.NodeID(1 + i*(len(in.pts)-1)/f)
	}
	step := sim.Second / sim.Duration(f)
	k := 0
	out["neighbor.on_hello_ns"], _ = timeOp(func(n int) {
		for i := 0; i < n; i++ {
			t.OnHello(ids[k%f], ids, sim.Second)
			s.RunUntil(s.Now().Add(step))
			k++
		}
	})
	out["neighbor.twohop_ns"], _ = timeOp(func(n int) {
		for i := 0; i < n; i++ {
			sink = t.TwoHop(ids[k%f])
			k++
		}
	})
}

// nodesetDriver times the word-parallel s |= a & b over sets sized to the
// workload's population with fan-out members each.
func nodesetDriver(in driverInput, out map[string]float64) {
	rng := sim.NewRNG(in.seed)
	a, b, s := nodeset.New(len(in.pts)), nodeset.New(len(in.pts)), nodeset.New(len(in.pts))
	for i := 0; i < in.fanout; i++ {
		a.Add(packet.NodeID(rng.IntN(len(in.pts))))
		b.Add(packet.NodeID(rng.IntN(len(in.pts))))
	}
	out["nodeset.union_intersect_ns"], _ = timeOp(func(n int) {
		for i := 0; i < n; i++ {
			s.UnionIntersection(a, b)
		}
	})
}

// driverHost is the host view the scheme drivers judge from: a host at
// the neighbourhood's centre that knows its neighbours and, for each, a
// two-hop list of half of them.
type driverHost struct {
	pos    geom.Point
	radius float64
	ids    []packet.NodeID
	set    *nodeset.Set
	free   []*nodeset.Set
	hosts  int
}

var (
	_ scheme.HostView      = (*driverHost)(nil)
	_ scheme.NodeSetSource = (*driverHost)(nil)
)

func (h *driverHost) ID() packet.NodeID          { return 0 }
func (h *driverHost) Position() geom.Point       { return h.pos }
func (h *driverHost) Radius() float64            { return h.radius }
func (h *driverHost) NeighborCount() int         { return len(h.ids) }
func (h *driverHost) Neighbors() []packet.NodeID { return h.ids }
func (h *driverHost) TwoHop(n packet.NodeID) []packet.NodeID {
	if int(n) < 1 || int(n) > len(h.ids) {
		return nil
	}
	return h.ids[:len(h.ids)/2]
}
func (h *driverHost) NeighborNodeSet() *nodeset.Set { return h.set }
func (h *driverHost) AcquireNodeSet() *nodeset.Set {
	if n := len(h.free); n > 0 {
		s := h.free[n-1]
		h.free = h.free[:n-1]
		s.Clear()
		return s
	}
	return nodeset.New(h.hosts)
}
func (h *driverHost) ReleaseNodeSet(s *nodeset.Set) { h.free = append(h.free, s) }

// schemeDrivers time one packet's decision per scheme family at the
// workload's neighbourhood: NewJudge, the initial verdict, three
// duplicates and ReleaseJudge.
func schemeDrivers(in driverInput, hood neighbourhood, out map[string]float64) {
	h := &driverHost{pos: hood.center, radius: in.cfg.Radius, hosts: len(in.pts), set: nodeset.New(len(in.pts))}
	for i := range hood.nbrs {
		id := packet.NodeID(i + 1)
		h.ids = append(h.ids, id)
		h.set.Add(id)
	}
	rx := make([]scheme.Reception, 4)
	for i := range rx {
		rx[i] = scheme.Reception{From: h.ids[i], SenderPos: hood.nbrs[i], U: 0.5}
	}
	for _, c := range []struct {
		name string
		s    scheme.Scheme
	}{
		{"counter", scheme.Counter{C: 6}},
		{"ac", scheme.AdaptiveCounter{}},
		{"location", scheme.Location{A: 0.0134}},
		{"al", scheme.AdaptiveLocation{}},
		{"nc", scheme.NeighborCoverage{}},
	} {
		out["scheme.judge_ns."+c.name], _ = timeOp(func(n int) {
			for i := 0; i < n; i++ {
				j := c.s.NewJudge(h, rx[0])
				j.Initial()
				for _, dup := range rx[1:] {
					j.OnDuplicate(dup)
				}
				scheme.ReleaseJudge(j)
			}
		})
	}
}

// metricsDrivers time the streaming fold of one completed broadcast
// record and the summary over a run's worth of them.
func metricsDrivers(in driverInput, out map[string]float64) {
	rec := metrics.MakeBroadcastRecord(packet.BroadcastID{Source: 1, Seq: 1}, 0, len(in.pts))
	rec.Received, rec.Transmitted = len(in.pts)-1, len(in.pts)/2
	var st metrics.Stream
	out["metrics.fold_ns"], _ = timeOp(func(n int) {
		for i := 0; i < n; i++ {
			if st.Len() == in.requests {
				st = metrics.Stream{} // a run folds this many, then starts over
			}
			st.Fold(&rec)
		}
	})
	for st.Len() < in.requests {
		st.Fold(&rec)
	}
	out["metrics.summary_ns"], _ = timeOp(func(n int) {
		for i := 0; i < n; i++ {
			sink = st.Summary()
		}
	})
}

// pdesDrivers time one barrier round trip of the worker pool and the
// band-parallel reachability walk over the workload's placement, per
// host visited.
func pdesDrivers(in driverInput, out map[string]float64) {
	pool := pdes.NewPool(benchProcs)
	defer pool.Close()
	out["pdes.pool_do_ns"], _ = timeOp(func(n int) {
		for i := 0; i < n; i++ {
			pool.Do(benchProcs, func(int, int, int) {})
		}
	})
	var g geom.Grid
	g.Rebuild(in.pts, in.cfg.Radius)
	neigh := func(u int, buf []int) []int { return g.Neighbors(u, in.cfg.Radius, buf) }
	w := pdes.NewWalker(pool)
	k, visited, calls := 0, 0, 0
	ns, _ := timeOp(func(n int) {
		for i := 0; i < n; i++ {
			visited += w.Count(&g, 1, in.pts, k%len(in.pts), neigh)
			calls++
			k += 7
		}
	})
	out["pdes.walk_ns_per_host"] = ns * float64(calls) / float64(visited)
}

// snapshotDrivers time the checkpoint codec on a document taken from the
// workload's own configuration one simulated second into a run, per KiB
// of document. A world above snapshotHosts is cut to that population at
// the same density, because a document grows with hosts and the codec's
// cost per KiB does not.
func snapshotDrivers(in driverInput, out map[string]float64) error {
	cfg := in.cfg
	cfg.Arena, cfg.Engine, cfg.Shards = nil, 0, 0
	if cfg.Hosts > snapshotHosts {
		shrink := math.Sqrt(float64(snapshotHosts) / float64(cfg.Hosts))
		cfg.MapUnits = max(1, int(math.Round(float64(cfg.MapUnits)*shrink)))
		cfg.Hosts, cfg.Placement = snapshotHosts, nil
	}
	n, err := manet.New(cfg)
	if err != nil {
		return err
	}
	var doc bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n.CheckpointEvery = sim.Second
	n.CheckpointHook = func(sim.Time) error {
		cancel()
		return n.Checkpoint(&doc)
	}
	if _, err := n.RunContext(ctx); !errors.Is(err, context.Canceled) {
		return errors.Join(errors.New("snapshot driver: run ended before its first checkpoint"), err)
	}
	ck, err := snapshot.Decode(doc.Bytes())
	if err != nil {
		return err
	}
	kb := float64(doc.Len()) / 1024
	var enc []byte
	ns, _ := timeOp(func(n int) {
		for i := 0; i < n; i++ {
			enc = snapshot.Append(enc[:0], ck)
		}
	})
	out["snapshot.encode_ns_per_kb"] = ns / kb
	ns, _ = timeOp(func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = snapshot.Decode(enc) // decoded once above without error
		}
	})
	out["snapshot.decode_ns_per_kb"] = ns / kb
	return nil
}
