package routing

import (
	"repro/internal/manet"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
)

// router is the protocol the world runs (manet.Protocol): the discovery
// workload, every host's route table, and the discovery bookkeeping.
// Everything else about a host (radio, MAC, mobility, HELLO table,
// rebroadcast decisions) is the manet world's.
type router struct {
	cfg    Config
	world  *manet.Network
	sched  *sim.Scheduler
	routes []map[packet.NodeID]routeEntry // per host, by destination

	discoveries []*discovery // in origination order
	// byRequest maps every ring's RREQ to its discovery.
	byRequest map[packet.BroadcastID]*discovery

	ringEscalations int
	repliesDropped  int
	dataSent        int
	dataDelivered   int
	pathBreaks      int
}

// routeEntry is one row of a host's route table.
type routeEntry struct {
	nextHop packet.NodeID
	hops    int
	expires sim.Time
}

// discovery tracks one attempt's bookkeeping.
type discovery struct {
	flow    packet.BroadcastID // the first ring's RREQ, naming the route's flow
	target  packet.NodeID
	started sim.Time
	reached bool
	done    bool
	hops    int
	latency sim.Duration
}

// Start implements manet.Protocol: it arms the discovery workload.
func (r *router) Start() sim.Time {
	w := r.world.Config()
	workload := sim.NewRNG(w.Seed).Fork(4)
	at := sim.Time(0).Add(w.Warmup)
	for i := 0; i < r.cfg.Discoveries; i++ {
		at = at.Add(workload.UniformDuration(0, w.ArrivalSpread))
		origin := packet.NodeID(workload.IntN(w.Hosts))
		target := packet.NodeID(workload.IntN(w.Hosts))
		for target == origin {
			target = packet.NodeID(workload.IntN(w.Hosts))
		}
		r.sched.Schedule(at, func() {
			d := &discovery{target: target, started: r.sched.Now()}
			r.discoveries = append(r.discoveries, d)
			r.issueRing(d, origin, 0)
		})
	}
	return at
}

// issueRing floods ring k of a discovery (the only ring, unlimited,
// without expanding-ring search) and arms the escalation to ring k+1.
// Every ring is a fresh broadcast, so hosts that relayed a narrower one
// treat it as new.
func (r *router) issueRing(d *discovery, origin packet.NodeID, k int) {
	if d.done {
		return
	}
	ttls := r.cfg.RingTTLs
	if len(ttls) == 0 {
		ttls = []int{0}
	}
	id := r.world.Originate(origin, routeRequest{Target: d.target, TTL: ttls[k]})
	r.byRequest[id] = d
	if k == 0 {
		d.flow = id
	} else {
		r.ringEscalations++
	}
	if k+1 < len(ttls) {
		r.sched.After(r.cfg.RingTimeout, func() { r.issueRing(d, origin, k+1) })
	}
}

// Heard implements manet.Protocol for RREQs. Every copy installs or
// improves the reverse route to the originator through its sender. A
// first copy then reaches the target, which replies; or stops at the
// ring boundary; or goes to the scheme, relayed one hop further on.
func (r *router) Heard(host packet.NodeID, f *packet.Frame, first bool) (any, bool) {
	req := f.Payload.(routeRequest)
	r.recordRoute(host, f.Broadcast.Source, f.Sender, req.HopCount+1)
	switch {
	case !first:
		return nil, false
	case req.Target == host:
		r.byRequest[f.Broadcast].reached = true
		r.forwardReply(host, routeReply{Request: f.Broadcast, Target: host})
		return nil, false
	case req.TTL > 0 && req.HopCount+1 >= req.TTL:
		return nil, false // ring boundary: routes recorded, no relay
	}
	req.HopCount++
	return req, true
}

// ReceiveData implements manet.Protocol: the unicast plane (RREPs, data
// packets, RERRs).
func (r *router) ReceiveData(host packet.NodeID, f *packet.Frame) {
	switch msg := f.Payload.(type) {
	case routeReply:
		r.onReply(host, f.Sender, msg)
	case dataPacket:
		r.onData(host, msg)
	case routeError:
		delete(r.routes[host], msg.Unreachable)
		r.reportBreak(host, msg)
	}
}

// recordRoute installs (or improves) host's route to dst through
// nextHop, hops long.
func (r *router) recordRoute(host, dst, nextHop packet.NodeID, hops int) {
	if dst == host {
		return
	}
	now := r.sched.Now()
	cur, ok := r.routes[host][dst]
	if ok && cur.expires > now && cur.hops <= hops {
		return
	}
	r.routes[host][dst] = routeEntry{nextHop: nextHop, hops: hops, expires: now.Add(r.cfg.RouteLifetime)}
}

// route returns host's live route entry for dst, if any.
func (r *router) route(host, dst packet.NodeID) (routeEntry, bool) {
	e, ok := r.routes[host][dst]
	if !ok || e.expires <= r.sched.Now() {
		return routeEntry{}, false
	}
	return e, true
}

// forwardReply unicasts an RREP one hop along host's reverse route.
func (r *router) forwardReply(host packet.NodeID, rep routeReply) {
	e, ok := r.route(host, rep.Request.Source)
	if !ok {
		r.repliesDropped++
		return
	}
	r.world.Unicast(host, e.nextHop, replyBytes, rep, nil)
}

// onReply handles an RREP addressed to host: install the forward route,
// then complete the discovery at the originator or relay onward.
func (r *router) onReply(host, from packet.NodeID, rep routeReply) {
	r.recordRoute(host, rep.Target, from, rep.HopCount+1)
	if rep.Request.Source != host {
		rep.HopCount++
		r.forwardReply(host, rep)
		return
	}
	d := r.byRequest[rep.Request]
	if d.done {
		return
	}
	d.done = true
	d.hops = rep.HopCount + 1
	d.latency = r.sched.Now().Sub(d.started)
	if r.cfg.DataPerRoute > 0 {
		r.startFlow(d)
	}
}

// result folds the bookkeeping and the world's counters.
func (r *router) result(s metrics.Summary) Result {
	res := Result{
		Discoveries:     len(r.discoveries),
		RepliesDropped:  r.repliesDropped,
		RingEscalations: r.ringEscalations,
		HelloSent:       s.HelloSent,
		DataSent:        r.dataSent,
		DataDelivered:   r.dataDelivered,
		PathBreaks:      r.pathBreaks,
		Transmissions:   s.Transmissions,
		Collisions:      s.Collisions,
	}
	var hops int
	var lat sim.Duration
	for _, d := range r.discoveries {
		if d.reached {
			res.TargetReached++
		}
		if d.done {
			res.Succeeded++
			hops += d.hops
			lat += d.latency
		}
	}
	if res.Succeeded > 0 {
		res.MeanRouteHops = float64(hops) / float64(res.Succeeded)
		res.MeanDiscoveryLatency = sim.Duration(int64(lat) / int64(res.Succeeded))
	}
	for _, rec := range r.world.Records() {
		res.RequestTransmissions += rec.Transmitted
	}
	ms := r.world.MACStats()
	res.UnicastRetries, res.UnicastDrops = ms.Retries, ms.Dropped
	return res
}
