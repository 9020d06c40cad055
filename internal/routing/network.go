package routing

import (
	"fmt"

	"repro/internal/manet"
	"repro/internal/packet"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// Config describes a route-discovery experiment. The world it runs on
// is a manet world with manet's defaults for everything not listed here:
// radius and map unit, discovery inter-arrival spread, assessment delay,
// warm-up, and HELLO (fixed 1 s beacons when the scheme needs them).
type Config struct {
	// Hosts, MapUnits, MaxSpeedKMH, Static and Seed describe the world
	// exactly as in manet.Config, and like Scheme and Drain take manet's
	// defaults and validation.
	Hosts       int
	MapUnits    int
	MaxSpeedKMH float64
	Static      bool
	Seed        uint64

	// Scheme is the RREQ suppression scheme (the paper's subject).
	Scheme scheme.Scheme

	// Discoveries is how many route discoveries to attempt.
	Discoveries int

	// RingTTLs, when non-empty, enables expanding-ring search: each
	// discovery first floods with RingTTLs[0] hops, then escalates to
	// the next TTL after ringTimeout without a reply (0 = unlimited,
	// the classical final ring). Empty disables the optimization.
	RingTTLs []int

	// RTSThreshold enables the 802.11 RTS/CTS exchange for unicast data
	// frames (the RREPs) of at least this many bytes; 0 disables it.
	RTSThreshold int

	// DataPerRoute, when positive, pushes that many data packets along
	// every successfully discovered route (route-maintenance workload),
	// dataInterval apart.
	DataPerRoute int
	// Drain is extra simulated time after the last discovery, as in
	// manet.Config.
	Drain sim.Duration
}

// The protocol's timers.
const (
	// routeLifetime is how long an installed route stays valid.
	routeLifetime = 10 * sim.Second
	// ringTimeout is the per-ring wait before an expanding-ring search
	// escalates.
	ringTimeout = 250 * sim.Millisecond
	// dataInterval spaces the data packets of one flow.
	dataInterval = 200 * sim.Millisecond
)

// WithDefaults fills the unset route-discovery fields. The fields shared
// with manet.Config are defaulted by manet when the world is built.
func (c Config) WithDefaults() Config {
	if c.Discoveries == 0 {
		c.Discoveries = 50
	}
	return c
}

// Validate reports configuration errors: the world's through
// manet.Config.Validate, then the route-discovery fields'.
func (c Config) Validate() error {
	w := c.world().WithDefaults()
	if err := w.Validate(); err != nil {
		return err
	}
	switch {
	case w.Hosts < 2:
		return fmt.Errorf("routing: need at least two hosts to discover routes, have %d", w.Hosts)
	case c.Discoveries < 0:
		return fmt.Errorf("routing: negative discovery count %d", c.Discoveries)
	case c.RTSThreshold < 0:
		return fmt.Errorf("routing: negative RTS threshold %d", c.RTSThreshold)
	case c.DataPerRoute < 0:
		return fmt.Errorf("routing: negative data packets per route %d", c.DataPerRoute)
	}
	for _, ttl := range c.RingTTLs {
		if ttl < 0 {
			return fmt.Errorf("routing: negative ring TTL %d", ttl)
		}
	}
	return nil
}

// world describes the manet world the protocol runs on. Records are
// retained so the run can total its RREQ transmissions.
func (c Config) world() manet.Config {
	return manet.Config{
		Hosts:         c.Hosts,
		MapUnits:      c.MapUnits,
		MaxSpeedKMH:   c.MaxSpeedKMH,
		Static:        c.Static,
		Scheme:        c.Scheme,
		Drain:         c.Drain,
		RetainRecords: true,
		Seed:          c.Seed,
	}
}

// Result summarizes a route-discovery run.
type Result struct {
	Discoveries int
	// TargetReached counts discoveries whose RREQ arrived at the target.
	TargetReached int
	// Succeeded counts discoveries whose RREP made it back to the
	// originator (a usable route was established).
	Succeeded int
	// MeanRouteHops is the average established route length.
	MeanRouteHops float64
	// MeanDiscoveryLatency is the average origination-to-RREP time over
	// successful discoveries.
	MeanDiscoveryLatency sim.Duration
	// RequestTransmissions counts RREQ (re)broadcasts — the storm cost.
	RequestTransmissions int
	// RepliesDropped counts RREPs lost to missing reverse routes.
	RepliesDropped int
	// RingEscalations counts expanding-ring retries (wider TTLs issued).
	RingEscalations int
	// UnicastRetries and UnicastDrops aggregate the MAC-level ARQ
	// activity (RREP retransmissions and abandonments).
	UnicastRetries int
	UnicastDrops   int
	// Data-plane counters (Config.DataPerRoute > 0): packets originated,
	// packets that reached their target, and route breaks detected.
	DataSent      int
	DataDelivered int
	PathBreaks    int
	// HelloSent counts beacons.
	HelloSent int
	// Channel counters.
	Transmissions int
	Collisions    int
}

// SuccessRate is Succeeded / Discoveries.
func (r Result) SuccessRate() float64 {
	if r.Discoveries == 0 {
		return 0
	}
	return float64(r.Succeeded) / float64(r.Discoveries)
}

// RequestsPerDiscovery is the mean RREQ transmissions per attempt.
func (r Result) RequestsPerDiscovery() float64 {
	if r.Discoveries == 0 {
		return 0
	}
	return float64(r.RequestTransmissions) / float64(r.Discoveries)
}

// Network is one assembled route-discovery simulation: a manet world
// whose broadcasts are route requests.
type Network struct {
	world *manet.Network
	r     router
}

// New assembles a routing network.
func New(cfg Config) (*Network, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newNetwork(cfg, cfg.world())
}

// newNetwork runs the protocol configured by cfg on the world wcfg
// describes.
func newNetwork(cfg Config, wcfg manet.Config) (*Network, error) {
	world, err := manet.New(wcfg)
	if err != nil {
		return nil, err
	}
	world.SetRTSThreshold(cfg.RTSThreshold)
	n := &Network{world: world, r: router{
		cfg:       cfg,
		world:     world,
		sched:     world.Scheduler(),
		routes:    make([]map[packet.NodeID]routeEntry, world.Config().Hosts),
		byRequest: make(map[packet.BroadcastID]*discovery),
	}}
	for i := range n.r.routes {
		n.r.routes[i] = make(map[packet.NodeID]routeEntry)
	}
	world.Protocol = &n.r
	return n, nil
}

// Run executes the discovery workload. It panics if called twice.
func (n *Network) Run() Result {
	return n.r.result(n.world.Run())
}
