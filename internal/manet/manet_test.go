package manet

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// chain returns n host positions in a line, spaced gap meters apart.
func chain(n int, gap float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: 100 + float64(i)*gap, Y: 100}
	}
	return pts
}

// cluster returns n hosts packed inside one radio radius.
func cluster(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: 200 + float64(i%5)*40, Y: 200 + float64(i/5)*40}
	}
	return pts
}

func TestFloodingReachesChain(t *testing.T) {
	// A 6-hop static chain: flooding must deliver to every host.
	cfg := Config{
		Hosts:     7,
		MapUnits:  7,
		Static:    true,
		Placement: chain(7, 450),
		Scheme:    scheme.Flooding{},
		Requests:  5,
		Seed:      1,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := n.Run()
	if s.Broadcasts != 5 {
		t.Fatalf("broadcasts = %d", s.Broadcasts)
	}
	if s.MeanRE < 0.99 {
		t.Errorf("flooding on a quiet chain: RE = %v, want ~1", s.MeanRE)
	}
	if s.MeanSRB != 0 {
		t.Errorf("flooding SRB = %v, want exactly 0", s.MeanSRB)
	}
}

func TestFloodingTransmissionCount(t *testing.T) {
	// Flooding costs one transmission per receiving host per broadcast.
	cfg := Config{
		Hosts:     5,
		MapUnits:  1,
		Static:    true,
		Placement: cluster(5),
		Scheme:    scheme.Flooding{},
		Requests:  1,
		Seed:      3,

		RetainRecords: true,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	rec := n.Records()[0]
	if rec.Received != rec.Transmitted {
		t.Errorf("flooding: r=%d t=%d, want equal", rec.Received, rec.Transmitted)
	}
}

func TestCounterSchemeSavesInDenseCluster(t *testing.T) {
	// 20 hosts in one mutual-range cluster: with C=2 most hosts hear the
	// packet twice before their own rebroadcast fires and cancel.
	cfg := Config{
		Hosts:     20,
		MapUnits:  1,
		Static:    true,
		Placement: cluster(20),
		Scheme:    scheme.Counter{C: 2},
		Requests:  10,
		Seed:      7,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := n.Run()
	if s.MeanRE < 0.95 {
		t.Errorf("counter scheme in a single cluster: RE = %v, want ~1", s.MeanRE)
	}
	if s.MeanSRB < 0.5 {
		t.Errorf("counter scheme saved only %v of rebroadcasts in a dense cluster", s.MeanSRB)
	}
}

func TestCounterNeverExceedsFloodingTransmissions(t *testing.T) {
	base := Config{
		Hosts:    30,
		MapUnits: 3,
		Requests: 20,
		Seed:     11,
	}
	fl := base
	fl.Scheme = scheme.Flooding{}
	nf, err := New(fl)
	if err != nil {
		t.Fatal(err)
	}
	sf := nf.Run()

	ct := base
	ct.Scheme = scheme.Counter{C: 3}
	nc, err := New(ct)
	if err != nil {
		t.Fatal(err)
	}
	sc := nc.Run()

	if sc.MeanSRB <= sf.MeanSRB {
		t.Errorf("counter SRB %v not above flooding SRB %v", sc.MeanSRB, sf.MeanSRB)
	}
}

func TestInvariantTransmittedLEReceived(t *testing.T) {
	// For every scheme: t <= r (only receiving hosts can rebroadcast)
	// and r <= hosts.
	schemes := []scheme.Scheme{
		scheme.Flooding{},
		scheme.Counter{C: 3},
		scheme.Location{A: 0.05},
		scheme.AdaptiveCounter{},
		scheme.AdaptiveLocation{},
		scheme.NeighborCoverage{},
	}
	for _, sch := range schemes {
		cfg := Config{
			Hosts:         25,
			MapUnits:      3,
			Scheme:        sch,
			Requests:      15,
			RetainRecords: true,
			Seed:          13,
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", sch.Name(), err)
		}
		n.Run()
		for _, rec := range n.Records() {
			if rec.Transmitted > rec.Received {
				t.Errorf("%s: t=%d > r=%d for %v", sch.Name(), rec.Transmitted, rec.Received, rec.ID)
			}
			if rec.Received > cfg.Hosts {
				t.Errorf("%s: r=%d > population %d", sch.Name(), rec.Received, cfg.Hosts)
			}
			if rec.Reachable > cfg.Hosts || rec.Reachable < 1 {
				t.Errorf("%s: e=%d out of range", sch.Name(), rec.Reachable)
			}
			if rec.Latency() < 0 {
				t.Errorf("%s: negative latency %v", sch.Name(), rec.Latency())
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{
		Hosts:    20,
		MapUnits: 3,
		Scheme:   scheme.AdaptiveCounter{},
		Requests: 10,
		Seed:     17,
	}
	run := func() (float64, float64, int) {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := n.Run()
		return s.MeanRE, s.MeanSRB, s.Transmissions
	}
	re1, srb1, tx1 := run()
	re2, srb2, tx2 := run()
	if re1 != re2 || srb1 != srb2 || tx1 != tx2 {
		t.Errorf("same seed diverged: (%v,%v,%d) vs (%v,%v,%d)", re1, srb1, tx1, re2, srb2, tx2)
	}
}

func TestSeedsProduceDifferentRuns(t *testing.T) {
	res := make(map[int]bool)
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := Config{
			Hosts:    20,
			MapUnits: 3,
			Scheme:   scheme.Flooding{},
			Requests: 10,
			Seed:     seed,
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res[n.Run().Transmissions] = true
	}
	if len(res) < 2 {
		t.Error("three different seeds produced identical transmission counts")
	}
}

func TestHelloPopulatesNeighborTables(t *testing.T) {
	cfg := Config{
		Hosts:     8,
		MapUnits:  1,
		Static:    true,
		Placement: cluster(8),
		Scheme:    scheme.NeighborCoverage{},
		HelloMode: HelloFixed,
		Requests:  1,
		Warmup:    5 * sim.Second,
		Seed:      19,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := n.Run()
	if s.HelloSent == 0 {
		t.Fatal("no HELLO packets sent")
	}
	// After warmup every host in the mutual-range cluster should know
	// all 7 others.
	for i := 0; i < cfg.Hosts; i++ {
		if got, want := n.HostTableCount(i), n.TrueNeighborCount(i); got != want {
			t.Errorf("host %d table has %d neighbors, ground truth %d", i, got, want)
		}
	}
}

// TestAnnouncedSetOutlivesSenderAndFrame: a receiver keeps the neighbor
// set a HELLO announced — the sender's own storage, not a copy — and it
// must keep reading what was announced after the sender's table changes
// and after the beacon that carried it is recycled and reused, on the
// channel and on the IdealHello path alike.
func TestAnnouncedSetOutlivesSenderAndFrame(t *testing.T) {
	for _, ideal := range []bool{false, true} {
		t.Run(fmt.Sprintf("ideal=%v", ideal), func(t *testing.T) {
			cfg := Config{
				// Hosts 1 and 2 hear each other; host 0 is out of range.
				Hosts: 3, MapUnits: 5, Static: true, HelloMode: HelloFixed, IdealHello: ideal,
				Placement: []geom.Point{{X: 2200, Y: 2200}, {X: 200, Y: 200}, {X: 240, Y: 200}},
				Scheme:    scheme.NeighborCoverage{}, Requests: 1, Warmup: 10 * sim.Second, Seed: 3,
			}
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Beacon without a broadcast workload: what RunContext's start
			// does, minus the requests.
			n.endTime = sim.Time(60 * sim.Second)
			for _, h := range n.hosts {
				h.scheduleHello()
			}
			sender, receiver := n.hosts[1], n.hosts[2]
			n.sched.RunUntil(sim.Time(3 * sim.Second))
			got := receiver.hello.table.TwoHop(sender.id)
			want := []packet.NodeID{2}
			if !slices.Equal(got, want) {
				t.Fatalf("receiver's two-hop set for the sender is %v, want %v", got, want)
			}
			if &got[0] != &sender.hello.table.Announce()[0] {
				t.Error("the receiver copied the announced set instead of sharing it")
			}
			// The sender's neighborhood changes ahead of the announced id.
			sender.hello.table.OnHello(0, nil, 10*sim.Second)
			if got := receiver.hello.table.TwoHop(sender.id); !slices.Equal(got, want) {
				t.Fatalf("after the sender's table changed, the receiver reads %v, want %v", got, want)
			}
			// Run to the sender's next beacon, which takes a recycled frame
			// on the channel path, but not to its delivery.
			pooled := slices.Clone(n.helloPool)
			n.sched.RunUntil(sender.hello.timer.At())
			if !ideal {
				if len(sender.hello.fly) != 1 || !slices.Contains(pooled, sender.hello.fly[0]) {
					t.Fatalf("the sender's beacon is not a recycled frame (%d in flight, %d pooled)",
						len(sender.hello.fly), len(pooled))
				}
				if f := sender.hello.fly[0]; !slices.Equal(f.Neighbors, []packet.NodeID{0, 2}) {
					t.Fatalf("the new beacon announces %v, want [0 2]", f.Neighbors)
				}
				if got := receiver.hello.table.TwoHop(sender.id); !slices.Equal(got, want) {
					t.Fatalf("after the beacon frame was reused, the receiver reads %v, want %v", got, want)
				}
			}
			n.sched.RunUntil(n.sched.Now().Add(100 * sim.Millisecond))
			if got := receiver.hello.table.TwoHop(sender.id); !slices.Equal(got, []packet.NodeID{0, 2}) {
				t.Fatalf("after the new beacon, the receiver reads %v, want [0 2]", got)
			}
		})
	}
}

func TestNeighborCoverageSavesInCluster(t *testing.T) {
	cfg := Config{
		Hosts:     15,
		MapUnits:  1,
		Static:    true,
		Placement: cluster(15),
		Scheme:    scheme.NeighborCoverage{},
		Requests:  10,
		Seed:      23,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := n.Run()
	if s.MeanRE < 0.95 {
		t.Errorf("NC in cluster: RE = %v", s.MeanRE)
	}
	// In a fully meshed cluster the first transmission covers everyone;
	// with accurate tables nearly all rebroadcasts are suppressed.
	if s.MeanSRB < 0.7 {
		t.Errorf("NC in cluster saved only %v", s.MeanSRB)
	}
}

func TestDynamicHelloSendsFewerInStaticNetwork(t *testing.T) {
	base := Config{
		Hosts:     10,
		MapUnits:  1,
		Static:    true,
		Placement: cluster(10),
		Scheme:    scheme.NeighborCoverage{},
		Requests:  1,
		Warmup:    80 * sim.Second,
		Seed:      29,
	}
	fixed := base
	fixed.HelloMode = HelloFixed
	fixed.HelloInterval = 1 * sim.Second
	nf, err := New(fixed)
	if err != nil {
		t.Fatal(err)
	}
	sf := nf.Run()

	dyn := base
	dyn.HelloMode = HelloDynamic
	nd, err := New(dyn)
	if err != nil {
		t.Fatal(err)
	}
	sd := nd.Run()

	// A static network has near-zero neighborhood variation, so DHI
	// should approach the 10x longer himax interval.
	if sd.HelloSent*3 > sf.HelloSent {
		t.Errorf("DHI sent %d HELLOs, fixed 1s sent %d; expected large saving",
			sd.HelloSent, sf.HelloSent)
	}
}

func TestIsolatedSourceREIsOne(t *testing.T) {
	// Two hosts far out of range: e = 1, r = 1, RE = 1.
	cfg := Config{
		Hosts:     2,
		MapUnits:  11,
		Static:    true,
		Placement: []geom.Point{{X: 100, Y: 100}, {X: 5000, Y: 5000}},
		Scheme:    scheme.Flooding{},
		Requests:  4,
		Seed:      31,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := n.Run()
	if math.Abs(s.MeanRE-1) > 1e-9 {
		t.Errorf("isolated hosts RE = %v, want 1 (by the paper's definition)", s.MeanRE)
	}
}

func TestPartitionLimitsReachabilityDenominator(t *testing.T) {
	// Two clusters far apart: e counts only the source's component.
	pts := append(cluster(5), geom.Point{X: 4000, Y: 4000},
		geom.Point{X: 4040, Y: 4000}, geom.Point{X: 4080, Y: 4000})
	cfg := Config{
		Hosts:     8,
		MapUnits:  11,
		Static:    true,
		Placement: pts,
		Scheme:    scheme.Flooding{},
		Requests:  6,
		Seed:      37,

		RetainRecords: true,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := n.Run()
	for _, rec := range n.Records() {
		if rec.Reachable != 5 && rec.Reachable != 3 {
			t.Errorf("reachable = %d, want 5 or 3 (two partitions)", rec.Reachable)
		}
	}
	if s.MeanRE < 0.99 {
		t.Errorf("flooding within partitions should reach everyone: %v", s.MeanRE)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Hosts: -1},
		{Hosts: 3, Placement: chain(2, 100), Static: true},
		{Scheme: scheme.NeighborCoverage{}, HelloMode: HelloOff, Warmup: sim.Second},
	}
	// The third case only fails if defaulting is bypassed; simulate that
	// by validating directly after defaults would have fixed HelloMode.
	c0 := cases[0].WithDefaults()
	if err := c0.Validate(); err == nil {
		t.Error("negative hosts passed validation")
	}
	c1 := cases[1].WithDefaults()
	if err := c1.Validate(); err == nil {
		t.Error("mismatched placement passed validation")
	}
	// Defaulting must auto-enable HELLO for schemes that need it.
	c2 := cases[2].WithDefaults()
	if c2.HelloMode == HelloOff {
		t.Error("defaults did not enable HELLO for a HELLO-dependent scheme")
	}
	// Negative durations and speeds used to reach New and panic there
	// (or, for Drain, return an empty Summary with no error).
	for name, cfg := range map[string]Config{
		"negative speed":          {MaxSpeedKMH: -5},
		"negative hello interval": {Scheme: scheme.NeighborCoverage{}, HelloInterval: -5 * sim.Millisecond},
		"negative warmup":         {Scheme: scheme.NeighborCoverage{}, Warmup: -sim.Second},
		"negative drain":          {Drain: -sim.Second},
		"negative arrival spread": {ArrivalSpread: -sim.Second},
		"negative map unit":       {UnitMeters: -500},
		"NaN speed":               {MaxSpeedKMH: math.NaN()},
		"infinite speed":          {MaxSpeedKMH: math.Inf(1)},
		"NaN loss rate":           {LossRate: math.NaN()},
		"NaN capture ratio":       {CaptureRatio: math.NaN()},
		"NaN radius":              {Radius: math.NaN()},
		"infinite radius":         {Radius: math.Inf(1)},
		"NaN map unit":            {UnitMeters: math.NaN()},
	} {
		cfg.Hosts, cfg.Requests = 10, 2
		if _, err := New(cfg); err == nil {
			t.Errorf("%s passed validation", name)
		}
	}
}

func TestRunTwicePanics(t *testing.T) {
	n, err := New(Config{Hosts: 2, MapUnits: 1, Requests: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	n.Run()
}

func TestAdaptiveCounterOutperformsFixedSparseC2(t *testing.T) {
	// The paper's headline: in sparse maps, C=2 loses reachability while
	// the adaptive scheme keeps it high. Use a moderately sparse static
	// topology with enough hosts for multihop structure.
	base := Config{
		Hosts:    60,
		MapUnits: 9,
		Requests: 30,
		Seed:     41,
	}
	c2 := base
	c2.Scheme = scheme.Counter{C: 2}
	n1, err := New(c2)
	if err != nil {
		t.Fatal(err)
	}
	s1 := n1.Run()

	ac := base
	ac.Scheme = scheme.AdaptiveCounter{}
	n2, err := New(ac)
	if err != nil {
		t.Fatal(err)
	}
	s2 := n2.Run()

	if s2.MeanRE < s1.MeanRE-0.02 {
		t.Errorf("adaptive counter RE %v worse than fixed C=2 RE %v in sparse map",
			s2.MeanRE, s1.MeanRE)
	}
}

func TestHelloModeString(t *testing.T) {
	if HelloOff.String() != "off" || HelloFixed.String() != "fixed" ||
		HelloDynamic.String() != "dynamic" || HelloMode(9).String() == "" {
		t.Error("HelloMode names wrong")
	}
}
