package routing

import (
	"testing"

	"repro/internal/manet"
	"repro/internal/packet"
	"repro/internal/scheme"
	"repro/internal/sim"
)

func TestDiscoveryOnDenseStaticNetwork(t *testing.T) {
	cfg := Config{
		Hosts:       30,
		MapUnits:    1, // everyone in range: 1-hop routes
		Static:      true,
		Scheme:      scheme.Flooding{},
		Discoveries: 20,
		Seed:        1,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := n.Run()
	if r.Discoveries != 20 {
		t.Fatalf("discoveries = %d", r.Discoveries)
	}
	if r.SuccessRate() < 0.9 {
		t.Errorf("success rate %v in a single cell, want ~1", r.SuccessRate())
	}
	if r.MeanRouteHops < 1 || r.MeanRouteHops > 1.5 {
		t.Errorf("mean hops = %v in a single cell, want ~1", r.MeanRouteHops)
	}
	if r.MeanDiscoveryLatency <= 0 {
		t.Error("zero discovery latency")
	}
}

func TestDiscoveryFindsMultihopRoutes(t *testing.T) {
	cfg := Config{
		Hosts:       80,
		MapUnits:    5,
		Static:      true,
		Scheme:      scheme.Flooding{},
		Discoveries: 30,
		Seed:        3,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := n.Run()
	if r.SuccessRate() < 0.6 {
		t.Errorf("multihop success rate = %v", r.SuccessRate())
	}
	if r.MeanRouteHops <= 1.2 {
		t.Errorf("mean hops = %v on a 5x5 map, expected multihop routes", r.MeanRouteHops)
	}
}

func TestSuppressionReducesRequestCost(t *testing.T) {
	base := Config{
		Hosts:       60,
		MapUnits:    3,
		Static:      true,
		Discoveries: 20,
		Seed:        7,
	}
	fl := base
	fl.Scheme = scheme.Flooding{}
	nf, err := New(fl)
	if err != nil {
		t.Fatal(err)
	}
	rf := nf.Run()

	ac := base
	ac.Scheme = scheme.AdaptiveCounter{}
	na, err := New(ac)
	if err != nil {
		t.Fatal(err)
	}
	ra := na.Run()

	if ra.RequestsPerDiscovery() >= rf.RequestsPerDiscovery() {
		t.Errorf("AC requests/discovery %v not below flooding's %v",
			ra.RequestsPerDiscovery(), rf.RequestsPerDiscovery())
	}
	if ra.SuccessRate() < rf.SuccessRate()-0.2 {
		t.Errorf("AC success %v collapsed vs flooding %v", ra.SuccessRate(), rf.SuccessRate())
	}
}

func TestReverseRoutesInstalled(t *testing.T) {
	cfg := Config{
		Hosts:       20,
		MapUnits:    1,
		Static:      true,
		Scheme:      scheme.Flooding{},
		Discoveries: 5,
		Seed:        9,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := n.Run()
	if r.Succeeded == 0 {
		t.Fatal("no discovery succeeded")
	}
	// After a successful discovery, at least one origin holds a live
	// route to its target... routes may have expired by run end, so just
	// assert the accounting is consistent instead.
	if r.TargetReached < r.Succeeded {
		t.Errorf("succeeded %d > target-reached %d", r.Succeeded, r.TargetReached)
	}
}

func TestRouteExpiry(t *testing.T) {
	cfg := Config{
		Hosts:         10,
		MapUnits:      1,
		Static:        true,
		Scheme:        scheme.Flooding{},
		Discoveries:   1,
		RouteLifetime: 1 * sim.Second,
		Drain:         5 * sim.Second,
		Seed:          11,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := n.Run()
	if r.Succeeded != 1 {
		t.Fatalf("single discovery on a static 1x1 map failed (%d succeeded); the expiry check needs its route", r.Succeeded)
	}
	// All routes were installed at least 5 s (the drain) before the run
	// ended, with a 1 s lifetime: nothing should remain.
	for a := 0; a < cfg.Hosts; a++ {
		for b := 0; b < cfg.Hosts; b++ {
			if a == b {
				continue
			}
			if _, ok := n.r.route(packet.NodeID(a), packet.NodeID(b)); ok {
				t.Fatalf("route %d->%d survived its lifetime", a, b)
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		n, err := New(Config{
			Hosts: 25, MapUnits: 3, Scheme: scheme.AdaptiveCounter{},
			Discoveries: 10, Seed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n.Run()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("routing runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Hosts: 1}); err == nil {
		t.Error("single-host network accepted")
	}
	// The world must beacon for a HELLO-dependent scheme.
	n, err := New(Config{Hosts: 5, Scheme: scheme.NeighborCoverage{}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.world.Close()
	if n.world.Config().HelloMode == manet.HelloOff {
		t.Error("defaults left HELLO off for NC")
	}
	// What manet.Config.Validate refuses for the shared fields, plus the
	// routing-only counts: each must be an error, not a run.
	for name, bad := range map[string]Config{
		"negative map":            {MapUnits: -1},
		"negative speed":          {MaxSpeedKMH: -5},
		"negative discoveries":    {Discoveries: -1},
		"negative rts threshold":  {RTSThreshold: -1},
		"negative data per route": {DataPerRoute: -1},
		"negative drain":          {Drain: -sim.Second},
		"negative ring timeout":   {RingTTLs: []int{1, 0}, RingTimeout: -sim.Second},
		"negative data interval":  {DataPerRoute: 5, DataInterval: -sim.Second},
		"negative route lifetime": {RouteLifetime: -sim.Second},
		"negative ring ttl":       {RingTTLs: []int{-1, 0}},
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRunTwicePanics(t *testing.T) {
	n, err := New(Config{Hosts: 3, MapUnits: 1, Discoveries: 1, Seed: 1})
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

func TestResultHelpers(t *testing.T) {
	var zero Result
	if zero.SuccessRate() != 0 || zero.RequestsPerDiscovery() != 0 {
		t.Error("zero-result helpers must not divide by zero")
	}
	r := Result{Discoveries: 4, Succeeded: 3, RequestTransmissions: 40}
	if r.SuccessRate() != 0.75 {
		t.Errorf("success rate = %v", r.SuccessRate())
	}
	if r.RequestsPerDiscovery() != 10 {
		t.Errorf("req/discovery = %v", r.RequestsPerDiscovery())
	}
}

func TestExpandingRingFindsNearTargetCheaply(t *testing.T) {
	base := Config{
		Hosts:       80,
		MapUnits:    5,
		Static:      true,
		Scheme:      scheme.Flooding{},
		Discoveries: 20,
		Seed:        23,
	}
	full := base
	nf, err := New(full)
	if err != nil {
		t.Fatal(err)
	}
	rf := nf.Run()

	ring := base
	ring.RingTTLs = []int{2, 0}
	ring.RingTimeout = 300 * sim.Millisecond
	nr, err := New(ring)
	if err != nil {
		t.Fatal(err)
	}
	rr := nr.Run()

	if rr.SuccessRate() < rf.SuccessRate()-0.15 {
		t.Errorf("expanding ring success %v collapsed vs full flood %v",
			rr.SuccessRate(), rf.SuccessRate())
	}
	if rr.RequestTransmissions >= rf.RequestTransmissions {
		t.Errorf("expanding ring cost %d RREQs >= full flood's %d",
			rr.RequestTransmissions, rf.RequestTransmissions)
	}
	if rr.RingEscalations == 0 {
		t.Error("no escalations recorded; far targets should need the wide ring")
	}
}

func TestTTLBoundsFloodRadius(t *testing.T) {
	// A long chain: with TTL 2 the request must not travel beyond 2 hops,
	// so a far target is never reached without escalation.
	cfg := Config{
		Hosts:       8,
		MapUnits:    9,
		Static:      true,
		Scheme:      scheme.Flooding{},
		Discoveries: 0, // we originate manually below via RingTTLs config
		Seed:        29,
	}
	// Instead of manual origination (not exposed), use a 1-discovery run
	// with a single bounded ring and no escalation: success should be
	// rare because targets are random and usually > 2 hops away on a
	// chain. Use many discoveries for signal.
	cfg.Discoveries = 15
	cfg.RingTTLs = []int{2}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Build a chain topology by overriding placement: routing.Config has
	// no Placement, so approximate with a sparse map instead; assert only
	// that bounded TTL yields strictly fewer request transmissions than
	// the 15 discoveries could produce unbounded (8 hosts -> at most
	// 15*8 = 120 tx; TTL 2 must stay well below).
	r := n.Run()
	if r.RequestTransmissions >= 15*8/2 {
		t.Errorf("TTL-2 flood produced %d RREQ transmissions; bound not effective", r.RequestTransmissions)
	}
}

func TestDataDeliveryOnStaticRoutes(t *testing.T) {
	cfg := Config{
		Hosts:        60,
		MapUnits:     3,
		Static:       true,
		Scheme:       scheme.Flooding{},
		Discoveries:  10,
		DataPerRoute: 5,
		Seed:         51,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := n.Run()
	if r.DataSent == 0 {
		t.Fatal("no data packets originated")
	}
	if r.DataSent != r.Succeeded*5 {
		t.Errorf("data sent = %d, want 5 per successful discovery (%d)",
			r.DataSent, r.Succeeded*5)
	}
	// Static topology with ARQ: virtually everything arrives.
	ratio := float64(r.DataDelivered) / float64(r.DataSent)
	if ratio < 0.95 {
		t.Errorf("static delivery ratio = %v (%d/%d), want ~1",
			ratio, r.DataDelivered, r.DataSent)
	}
	if r.PathBreaks > r.DataSent/10 {
		t.Errorf("static network reported %d path breaks", r.PathBreaks)
	}
}

func TestMobilityBreaksRoutes(t *testing.T) {
	// Fast movers + long data trains: links along multihop routes break
	// mid-flow and the maintenance plane must notice.
	cfg := Config{
		Hosts:        60,
		MapUnits:     7,
		MaxSpeedKMH:  120,
		Scheme:       scheme.Flooding{},
		Discoveries:  15,
		DataPerRoute: 20,
		DataInterval: 500 * sim.Millisecond,
		Drain:        12 * sim.Second,
		Seed:         53,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := n.Run()
	if r.DataSent == 0 || r.Succeeded == 0 {
		t.Fatalf("no flows established (%d data sent, %d discoveries succeeded); the path-break check needs them", r.DataSent, r.Succeeded)
	}
	if r.PathBreaks == 0 {
		t.Error("fast mobility with long flows produced zero path breaks")
	}
	if r.DataDelivered >= r.DataSent {
		t.Error("every packet delivered despite breaking routes — maintenance not exercised")
	}
}
