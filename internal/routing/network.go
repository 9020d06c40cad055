package routing

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/neighbor"
	"repro/internal/nodeset"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// Config describes a route-discovery experiment.
type Config struct {
	// Hosts, MapUnits, Radius, MaxSpeedKMH, Static and Seed mirror
	// manet.Config.
	Hosts       int
	MapUnits    int
	UnitMeters  float64
	Radius      float64
	MaxSpeedKMH float64
	Static      bool
	Seed        uint64

	// Scheme is the RREQ suppression scheme (the paper's subject).
	Scheme scheme.Scheme

	// Discoveries is how many route discoveries to attempt.
	Discoveries int
	// ArrivalSpread is the uniform inter-arrival bound between
	// discoveries.
	ArrivalSpread sim.Duration

	// HelloInterval drives neighbor discovery (needed by the adaptive
	// schemes); 0 disables HELLO, which is only valid for schemes that
	// do not require it.
	HelloInterval sim.Duration

	// RouteLifetime is how long an installed route stays valid.
	RouteLifetime sim.Duration

	// RingTTLs, when non-empty, enables expanding-ring search: each
	// discovery first floods with RingTTLs[0] hops, then escalates to
	// the next TTL after RingTimeout without a reply (0 = unlimited,
	// the classical final ring). Empty disables the optimization.
	RingTTLs []int
	// RingTimeout is the per-ring wait before escalating.
	RingTimeout sim.Duration

	// RTSThreshold enables the 802.11 RTS/CTS exchange for unicast data
	// frames (the RREPs) of at least this many bytes; 0 disables it.
	RTSThreshold int

	// DataPerRoute, when positive, pushes that many data packets along
	// every successfully discovered route (route-maintenance workload).
	DataPerRoute int
	// DataInterval spaces the data packets of one flow (0 = 200 ms).
	DataInterval sim.Duration
	// AssessmentSlots is the scheme-level random delay window.
	AssessmentSlots int
	// Warmup and Drain bound the run like in manet.Config.
	Warmup sim.Duration
	Drain  sim.Duration
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Hosts == 0 {
		c.Hosts = 100
	}
	if c.MapUnits == 0 {
		c.MapUnits = 5
	}
	if c.UnitMeters == 0 {
		c.UnitMeters = 500
	}
	if c.Radius == 0 {
		c.Radius = 500
	}
	if c.MaxSpeedKMH == 0 && !c.Static {
		c.MaxSpeedKMH = 10 * float64(c.MapUnits)
	}
	if c.Scheme == nil {
		c.Scheme = scheme.Flooding{}
	}
	if c.Discoveries == 0 {
		c.Discoveries = 50
	}
	if c.ArrivalSpread == 0 {
		c.ArrivalSpread = 2 * sim.Second
	}
	if c.HelloInterval == 0 && c.Scheme.NeedsHello() {
		c.HelloInterval = 1 * sim.Second
	}
	if c.RouteLifetime == 0 {
		c.RouteLifetime = 10 * sim.Second
	}
	if len(c.RingTTLs) > 0 && c.RingTimeout == 0 {
		c.RingTimeout = 250 * sim.Millisecond
	}
	if c.DataPerRoute > 0 && c.DataInterval == 0 {
		c.DataInterval = 200 * sim.Millisecond
	}
	if c.AssessmentSlots == 0 {
		c.AssessmentSlots = 31
	}
	if c.Warmup == 0 && c.HelloInterval > 0 {
		c.Warmup = 5 * sim.Second
	}
	if c.Drain == 0 {
		c.Drain = 2 * sim.Second
	}
	return c
}

// Validate reports configuration errors. For the fields shared with
// manet.Config it refuses what manet.Config.Validate refuses.
func (c Config) Validate() error {
	switch {
	case c.Hosts < 2:
		return errors.New("routing: need at least two hosts to discover routes")
	case c.MapUnits < 1:
		return errors.New("routing: map must be at least 1x1 units")
	case c.Radius <= 0:
		return errors.New("routing: radius must be positive")
	case c.UnitMeters < 0:
		return fmt.Errorf("routing: negative map unit %g m", c.UnitMeters)
	case c.MaxSpeedKMH < 0:
		return fmt.Errorf("routing: negative max speed %g km/h", c.MaxSpeedKMH)
	case c.Discoveries < 0:
		return fmt.Errorf("routing: negative discovery count %d", c.Discoveries)
	case c.ArrivalSpread < 0:
		return fmt.Errorf("routing: negative arrival spread %v", c.ArrivalSpread)
	case c.HelloInterval < 0:
		return fmt.Errorf("routing: negative hello interval %v", c.HelloInterval)
	case c.RTSThreshold < 0:
		return fmt.Errorf("routing: negative RTS threshold %d", c.RTSThreshold)
	case c.DataPerRoute < 0:
		return fmt.Errorf("routing: negative data packets per route %d", c.DataPerRoute)
	case c.AssessmentSlots < 0:
		return errors.New("routing: negative assessment slots")
	case c.Warmup < 0:
		return fmt.Errorf("routing: negative warmup %v", c.Warmup)
	case c.Drain < 0:
		return fmt.Errorf("routing: negative drain %v", c.Drain)
	}
	if c.Scheme.NeedsHello() && c.HelloInterval <= 0 {
		return fmt.Errorf("routing: scheme %s requires HELLO", c.Scheme.Name())
	}
	return nil
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

// discovery tracks one attempt's bookkeeping.
type discovery struct {
	id      RequestID
	target  packet.NodeID
	started sim.Time
	reached bool
	done    bool
	hops    int
	latency sim.Duration
}

// Network is one assembled route-discovery simulation.
type Network struct {
	cfg   Config
	sched *sim.Scheduler
	ch    *phy.Channel
	hosts []*rhost

	// setPool recycles judge scratch bitsets, as in manet.Network.
	setPool []*nodeset.Set

	discoveries map[RequestID]*discovery
	// subRequests maps the fresh RequestIDs of wider expanding-ring
	// attempts back to their original discovery.
	subRequests     map[RequestID]RequestID
	order           []RequestID
	seq             uint32
	ringEscalations int

	requestTx      int
	repliesDropped int
	helloSent      int
	dataSent       int
	dataDelivered  int
	pathBreaks     int
	endTime        sim.Time
	ran            bool
}

// New assembles a routing network.
func New(cfg Config) (*Network, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sched := sim.NewScheduler()
	n := &Network{
		cfg:         cfg,
		sched:       sched,
		ch:          phy.NewChannel(sched, phy.DSSSTiming(), cfg.Radius),
		discoveries: make(map[RequestID]*discovery),
		subRequests: make(map[RequestID]RequestID),
	}
	area := mobility.NewSquareMap(cfg.MapUnits, cfg.UnitMeters)
	root := sim.NewRNG(cfg.Seed)
	moveRNG := root.Fork(1)
	macRNG := root.Fork(2)
	hostRNG := root.Fork(3)

	n.hosts = make([]*rhost, cfg.Hosts)
	for i := range n.hosts {
		h := &rhost{
			id:      packet.NodeID(i),
			net:     n,
			rng:     hostRNG.Fork(uint64(i)),
			routes:  make(map[packet.NodeID]routeEntry),
			seen:    make(map[RequestID]bool),
			pending: make(map[RequestID]*pendingForward),
		}
		if cfg.Static {
			h.mover = mobility.NewStaticRoamer(sched, area, randomPointIn(moveRNG.Fork(uint64(i)), area))
		} else {
			h.mover = mobility.NewRoamer(sched, area,
				mobility.DefaultConfig(cfg.MaxSpeedKMH), moveRNG.Fork(uint64(i)))
		}
		h.table = neighbor.NewDenseTable(h.id, sched, 0, cfg.Hosts)
		h.mac = mac.New(sched, n.ch, h.mover, macRNG.Fork(uint64(i)))
		h.mac.SetAddr(h.id)
		h.mac.SetRTSThreshold(cfg.RTSThreshold)
		h.mac.Receiver = h
		// Handles are never read after their frame completes (the ARQ
		// verdict is consulted inside OnDone, before the MAC recycles the
		// record), as the MAC's pooling contract requires.
		n.hosts[i] = h
	}
	return n, nil
}

// acquireSet hands out an empty scratch bitset, reusing a pooled one.
func (n *Network) acquireSet() *nodeset.Set {
	if l := len(n.setPool); l > 0 {
		s := n.setPool[l-1]
		n.setPool = n.setPool[:l-1]
		s.Clear()
		return s
	}
	return nodeset.New(len(n.hosts))
}

// releaseSet returns a scratch bitset to the pool.
func (n *Network) releaseSet(s *nodeset.Set) {
	n.setPool = append(n.setPool, s)
}

func randomPointIn(rng *sim.RNG, area mobility.Map) geom.Point {
	return geom.Point{
		X: rng.UniformFloat(0, area.Width),
		Y: rng.UniformFloat(0, area.Height),
	}
}

// Run executes the discovery workload.
func (n *Network) Run() Result {
	if n.ran {
		panic("routing: Network.Run called twice")
	}
	n.ran = true

	workload := sim.NewRNG(n.cfg.Seed).Fork(4)
	at := sim.Time(0).Add(n.cfg.Warmup)
	var last sim.Time
	for i := 0; i < n.cfg.Discoveries; i++ {
		at = at.Add(workload.UniformDuration(0, n.cfg.ArrivalSpread))
		last = at
		origin := workload.IntN(len(n.hosts))
		target := workload.IntN(len(n.hosts))
		for target == origin {
			target = workload.IntN(len(n.hosts))
		}
		n.sched.Schedule(at, func() { n.originate(n.hosts[origin], packet.NodeID(target)) })
	}
	n.endTime = last.Add(n.cfg.Drain)
	if n.cfg.Discoveries == 0 {
		n.endTime = sim.Time(0).Add(n.cfg.Warmup + n.cfg.Drain)
	}
	for _, h := range n.hosts {
		h.scheduleHello()
	}
	n.sched.RunUntil(n.endTime)
	return n.result()
}

// originate launches one discovery, with expanding-ring escalation when
// configured.
func (n *Network) originate(origin *rhost, target packet.NodeID) {
	n.seq++
	id := RequestID{Origin: origin.id, Seq: n.seq}
	n.discoveries[id] = &discovery{
		id:      id,
		target:  target,
		started: n.sched.Now(),
	}
	n.order = append(n.order, id)
	if len(n.cfg.RingTTLs) == 0 {
		origin.originateDiscovery(id, target, 0)
		return
	}
	n.issueRing(origin, id, target, 0)
}

// issueRing floods ring number k of a discovery and arms the escalation
// timer for the next ring.
func (n *Network) issueRing(origin *rhost, id RequestID, target packet.NodeID, k int) {
	d := n.discoveries[id]
	if d == nil || d.done {
		return
	}
	if k > 0 {
		n.RingEscalationsHook() // counted below; hook kept trivial
		// Re-flooding the same RequestID requires hosts to treat it as
		// new; issue a fresh sub-request id for the wider ring.
		n.seq++
		id = RequestID{Origin: origin.id, Seq: n.seq}
		n.subRequests[id] = d.id
	}
	origin.originateDiscovery(id, target, n.cfg.RingTTLs[k])
	if k+1 < len(n.cfg.RingTTLs) {
		n.sched.After(n.cfg.RingTimeout, func() {
			n.issueRing(origin, d.id, target, k+1)
		})
	}
}

// RingEscalationsHook increments the escalation counter (separated so
// issueRing reads naturally).
func (n *Network) RingEscalationsHook() { n.ringEscalations++ }

func (n *Network) noteRequestForwarded() { n.requestTx++ }
func (n *Network) noteReplyDropped()     { n.repliesDropped++ }
func (n *Network) noteDataDelivered()    { n.dataDelivered++ }
func (n *Network) notePathBreak()        { n.pathBreaks++ }

// resolve maps a (possibly expanding-ring) request id to its discovery.
func (n *Network) resolve(id RequestID) *discovery {
	if base, ok := n.subRequests[id]; ok {
		id = base
	}
	return n.discoveries[id]
}

func (n *Network) noteRequestReachedTarget(id RequestID) {
	if d := n.resolve(id); d != nil {
		d.reached = true
	}
}

func (n *Network) noteDiscoveryComplete(id RequestID, hops int) {
	d := n.resolve(id)
	if d == nil || d.done {
		return
	}
	d.done = true
	d.hops = hops
	d.latency = n.sched.Now().Sub(d.started)
	if n.cfg.DataPerRoute > 0 {
		n.hosts[d.id.Origin].startFlow(d.id, d.target)
	}
}

// result folds the bookkeeping.
func (n *Network) result() Result {
	r := Result{
		Discoveries:          len(n.order),
		RequestTransmissions: n.requestTx,
		RepliesDropped:       n.repliesDropped,
		RingEscalations:      n.ringEscalations,
		HelloSent:            n.helloSent,
		DataSent:             n.dataSent,
		DataDelivered:        n.dataDelivered,
		PathBreaks:           n.pathBreaks,
	}
	var hops int
	var lat sim.Duration
	for _, id := range n.order {
		d := n.discoveries[id]
		if d.reached {
			r.TargetReached++
		}
		if d.done {
			r.Succeeded++
			hops += d.hops
			lat += d.latency
		}
	}
	if r.Succeeded > 0 {
		r.MeanRouteHops = float64(hops) / float64(r.Succeeded)
		r.MeanDiscoveryLatency = sim.Duration(int64(lat) / int64(r.Succeeded))
	}
	for _, h := range n.hosts {
		ms := h.mac.Stats()
		r.UnicastRetries += ms.Retries
		r.UnicastDrops += ms.Dropped
	}
	st := n.ch.Stats()
	r.Transmissions = st.Transmissions
	r.Collisions = st.Collisions
	return r
}
