package experiment

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/geom"
	"repro/internal/manet"
	"repro/internal/routing"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// Ablations returns design-choice experiments that go beyond the paper's
// figures: each isolates one mechanism of the reproduction so its
// contribution to the headline results can be measured.
func Ablations() []Spec {
	return []Spec{
		{
			ID:    "abl-assess",
			Title: "Ablation: scheme-level random assessment delay window",
			Paper: "the paper fixes the window at 0-31 slots; 0 removes the timing differentiation that relieves the storm",
			// AssessmentSlots==0 means "default" in the config, so the
			// no-delay case is approximated by a single slot.
			Run: byMap("abl-assess", "assessment delay window (adaptive counter)", true,
				values([]int{1, 15, 31, 127}, "assess<=%d slots", func(c *manet.Config, slots int) {
					c.Scheme = scheme.AdaptiveCounter{Label: fmt.Sprintf("assess<=%d slots", slots)}
					c.AssessmentSlots = slots
				})...),
		},
		{
			ID:    "abl-collision",
			Title: "Ablation: collision model on/off",
			Paper: "collisions are the paper's stated cause of flooding's lost reachability; without them flooding reaches everyone",
			Run: byMap("abl-collision", "collision model contribution", false,
				use("flooding", scheme.Flooding{}),
				edit{"flooding/no-collisions", func(c *manet.Config) {
					c.Scheme, c.DisableCollisions = scheme.Flooding{}, true
				}},
				use("AC", scheme.AdaptiveCounter{}),
				edit{"AC/no-collisions", func(c *manet.Config) {
					c.Scheme, c.DisableCollisions = scheme.AdaptiveCounter{Label: "AC/no-collisions"}, true
				}}),
		},
		{
			ID:    "abl-hello",
			Title: "Ablation: HELLO over the real MAC vs idealized out-of-band HELLO",
			Paper: "quantifies how much NC loses to beacon staleness and beacon-vs-data contention",
			Run: func(o Options) []*Table {
				o = o.WithDefaults()
				variants := axis{
					use("NC/mac-hello", scheme.NeighborCoverage{Label: "NC/mac-hello"}),
					edit{"NC/ideal-hello", func(c *manet.Config) {
						c.Scheme, c.IdealHello = scheme.NeighborCoverage{Label: "NC/ideal-hello"}, true
					}},
				}
				s := sweep{
					base: manet.Config{HelloMode: manet.HelloFixed, HelloInterval: 1 * sim.Second},
					axes: []axis{variants, maps([]int{7, 9, 11}), speeds(o.Speeds, "%g")},
				}
				v := view{corner: "variant", cols: []int{1, 2}}
				return s.tables(o, "abl-hello", v.of("NC reachability: real vs idealized HELLO", re))
			},
		},
		{
			ID:    "abl-expiry",
			Title: "Ablation: neighbor expiry policy (missed hello intervals)",
			Paper: "the paper drops a neighbor after 2 silent intervals; 1 is trigger-happy, 3 keeps stale entries",
			Run: byMap("abl-expiry", "neighbor expiry policy (NC)", false,
				values([]int{1, 2, 3}, "expiry=%d intervals", func(c *manet.Config, k int) {
					c.Scheme = scheme.NeighborCoverage{Label: fmt.Sprintf("expiry=%d intervals", k)}
					c.HelloMode, c.HelloInterval, c.ExpiryIntervals = manet.HelloFixed, 1*sim.Second, k
				})...),
		},
		{
			ID:    "abl-cluster",
			Title: "Ablation: cluster-based relaying (MOBICOM '99 baseline) vs adaptive schemes",
			Paper: "restricting relays to heads and gateways saves rebroadcasts but is fragile when clustering is stale",
			Run: byMap("abl-cluster", "cluster relaying vs adaptive schemes", false,
				use("cluster", scheme.Cluster{}),
				use("cluster+C=3", scheme.Cluster{Inner: scheme.Counter{C: 3}}),
				use("NC", scheme.NeighborCoverage{}),
				use("AC", scheme.AdaptiveCounter{})),
		},
		{
			ID:    "abl-capture",
			Title: "Ablation: capture effect (stronger frame survives an overlap)",
			Paper: "the paper assumes no capture; real radios capture, softening collision losses — mostly for flooding",
			Run: byMap("abl-capture", "capture effect (6 dB ratio)", false,
				use("flooding", scheme.Flooding{}),
				edit{"flooding/capture", func(c *manet.Config) {
					c.Scheme, c.CaptureRatio = scheme.Flooding{}, 4
				}},
				use("AC", scheme.AdaptiveCounter{}),
				edit{"AC/capture", func(c *manet.Config) {
					c.Scheme, c.CaptureRatio = scheme.AdaptiveCounter{Label: "AC/capture"}, 4
				}}),
		},
		{
			ID:    "abl-distance",
			Title: "Ablation: fixed distance-based thresholds (MOBICOM '99 baseline)",
			Paper: "the distance scheme shares the fixed-threshold dilemma: large D saves but loses sparse-map RE",
			Run: byMap("abl-distance", "distance thresholds vs adaptive counter", false,
				use("D=10", scheme.Distance{D: 10}),
				use("D=40", scheme.Distance{D: 40}),
				use("D=100", scheme.Distance{D: 100}),
				use("AC", scheme.AdaptiveCounter{})),
		},
		{
			ID:    "abl-mobility",
			Title: "Ablation: random-turn (paper) vs random-waypoint mobility",
			Paper: "results should be robust to the mobility model; waypoint's pause-and-dash pattern stresses neighbor staleness differently",
			Run: byMap("abl-mobility", "mobility model sensitivity", false,
				use("AC/random-turn", scheme.AdaptiveCounter{Label: "AC/random-turn"}),
				waypoint("AC/waypoint", scheme.AdaptiveCounter{Label: "AC/waypoint"}),
				use("NC/random-turn", scheme.NeighborCoverage{Label: "NC/random-turn"}),
				waypoint("NC/waypoint", scheme.NeighborCoverage{Label: "NC/waypoint"})),
		},
		{
			ID:    "abl-oracle",
			Title: "Oracle: SRB a greedy connected dominating set achieves, per density",
			Paper: "how close the adaptive schemes get to the best possible saving at full reachability",
			Run:   runAblOracle,
		},
		{
			ID:    "abl-load",
			Title: "Ablation: offered broadcast load (inter-arrival spread)",
			Paper: "the storm compounds under load: flooding degrades fastest as broadcasts arrive faster",
			// Smaller spread = more concurrent broadcasts = more
			// contention, on a mid-density map.
			Run: func(o Options) []*Table {
				spreads := []sim.Duration{100 * sim.Millisecond, 500 * sim.Millisecond, 2 * sim.Second, 5 * sim.Second}
				s := sweep{
					base: manet.Config{MapUnits: 5},
					axes: []axis{
						{
							use("flooding", scheme.Flooding{}),
							use("AC", scheme.AdaptiveCounter{}),
							use("NC", scheme.NeighborCoverage{}),
						},
						values(spreads, "U(0,%v)", func(c *manet.Config, d sim.Duration) { c.ArrivalSpread = d }),
					},
				}
				v := view{corner: "scheme", cols: []int{1}}
				return s.tables(o, "abl-load", v.of("RE vs offered load (5x5 map)", re),
					v.of("latency vs offered load (5x5 map)", latency))
			},
		},
		{
			ID:    "abl-rts",
			Title: "Ablation: RTS/CTS on route replies (the application layer built on the storm)",
			Paper: "the paper notes broadcasts cannot use RTS/CTS; unicast RREPs can, trading reservation overhead for hidden-terminal protection",
			Run:   runAblRTS,
		},
		{
			ID:    "abl-prob",
			Title: "Ablation: probabilistic gossip baseline vs adaptive schemes",
			Paper: "a fixed gossip probability has the same density dilemma as fixed thresholds",
			Run: byMap("abl-prob", "gossip probabilities vs adaptive counter", false,
				use("P=0.40", scheme.Probabilistic{P: 0.4}),
				use("P=0.70", scheme.Probabilistic{P: 0.7}),
				use("P=1.00", scheme.Probabilistic{P: 1.0}),
				use("AC", scheme.AdaptiveCounter{})),
		},
	}
}

// waypoint is a candidate running s under random-waypoint mobility.
func waypoint(label string, s scheme.Scheme) edit {
	return edit{label, func(c *manet.Config) { c.Scheme, c.Mobility = s, manet.MobilityWaypoint }}
}

// runAblOracle compares the measured SRB of the best adaptive schemes
// against the SRB a greedy or BFS-tree connected dominating set
// achieves while still reaching the source's whole component, computed
// on topology snapshots drawn exactly like the simulator's placements.
// The minimum CDS may save more, so the column is not a ceiling.
func runAblOracle(o Options) []*Table {
	o = o.WithDefaults()

	// Achievable SRB per map: average over random topologies and
	// sources, in the simulated world's map unit and radio radius.
	const topologies = 30
	world := manet.Config{}.WithDefaults()
	bound := column{head: "CDS SRB (greedy)"}
	rng := sim.NewRNG(o.BaseSeed).Fork(77)
	for _, mu := range o.Maps {
		side := float64(mu) * world.UnitMeters
		sum := 0.0
		for t := 0; t < topologies; t++ {
			pts := make([]geom.Point, o.Hosts)
			for i := range pts {
				pts[i] = geom.Point{X: rng.UniformFloat(0, side), Y: rng.UniformFloat(0, side)}
			}
			sum += analysis.AchievableSRB(pts, world.Radius, rng.IntN(o.Hosts))
		}
		bound.cells = append(bound.cells, f3(sum/topologies))
	}

	// Measured SRB (and RE) for the adaptive schemes.
	candidates := axis{
		use("AC", scheme.AdaptiveCounter{}),
		use("AL", scheme.AdaptiveLocation{}),
		ncDHI,
	}
	v := view{corner: "map", rows: 1, cols: []int{0}, fixed: &bound}
	return sweep{axes: []axis{candidates, maps(o.Maps)}}.tables(o, "abl-oracle",
		v.of("measured SRB vs achievable CDS SRB", srb, re))
}

// runAblRTS measures AODV-lite discovery with and without RTS/CTS on
// the RREP unicast path, for flooding and AC request dissemination.
func runAblRTS(o Options) []*Table {
	o = o.WithDefaults()
	type variant struct {
		label string
		sch   scheme.Scheme
		rts   int
	}
	variants := []variant{
		{"flooding / no-rts", scheme.Flooding{}, 0},
		{"flooding / rts", scheme.Flooding{}, 1},
		{"AC / no-rts", scheme.AdaptiveCounter{}, 0},
		{"AC / rts", scheme.AdaptiveCounter{}, 1},
	}
	t := NewTable("abl-rts", "route discovery with/without RTS-CTS on replies",
		"variant", "success", "rreq tx/disc", "rrep retries", "rrep drops", "latency")
	for i, v := range variants {
		n, err := routing.New(routing.Config{
			Hosts:        o.Hosts,
			MapUnits:     5,
			Scheme:       v.sch,
			Discoveries:  o.Requests,
			RTSThreshold: v.rts,
			Seed:         o.BaseSeed + uint64(i),
		})
		if err != nil {
			panic(err)
		}
		r := n.Run()
		t.AddRow(v.label, f3(r.SuccessRate()),
			fmt.Sprintf("%.1f", r.RequestsPerDiscovery()),
			fmt.Sprintf("%d", r.UnicastRetries),
			fmt.Sprintf("%d", r.UnicastDrops),
			fms(r.MeanDiscoveryLatency.Milliseconds()))
	}
	return []*Table{t}
}
