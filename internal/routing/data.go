package routing

import (
	"repro/internal/packet"
	"repro/internal/sim"
)

// This file adds data traffic and route maintenance on top of discovery:
// once a route is established, the originator pushes data packets along
// it hop by hop. A relay that cannot forward — its route expired, or the
// MAC exhausted its retransmissions (the link broke) — invalidates the
// route and reports a route error (RERR) back toward the source, which
// counts a path break. This is the AODV maintenance loop reduced to its
// observable effects.

// dataPacket is one payload packet of an established flow.
type dataPacket struct {
	Flow   packet.BroadcastID // the discovery that created the route
	Seq    int
	Target packet.NodeID
}

// routeError reports a broken route back to the flow's originator.
type routeError struct {
	Flow        packet.BroadcastID
	Unreachable packet.NodeID
}

// Wire sizes.
const (
	dataBytes = 512
	rerrBytes = 32
)

// startFlow begins pushing data packets from a discovery's originator
// along its new route.
func (r *router) startFlow(d *discovery) {
	for k := 1; k <= r.cfg.DataPerRoute; k++ {
		msg := dataPacket{Flow: d.flow, Seq: k, Target: d.target}
		r.sched.After(sim.Duration(k)*dataInterval, func() {
			r.dataSent++
			r.forwardData(d.flow.Source, msg)
		})
	}
}

// forwardData relays a data packet one hop along host's current route.
// The MAC's ARQ verdict doubles as link-failure detection: a frame that
// exhausts its retransmissions means the next hop is gone.
func (r *router) forwardData(host packet.NodeID, msg dataPacket) {
	e, ok := r.route(host, msg.Target)
	if !ok {
		r.routeBroken(host, msg)
		return
	}
	r.world.Unicast(host, e.nextHop, dataBytes, msg, func() { r.routeBroken(host, msg) })
}

// routeBroken invalidates host's route to the packet's target and
// reports the break.
func (r *router) routeBroken(host packet.NodeID, msg dataPacket) {
	delete(r.routes[host], msg.Target)
	r.reportBreak(host, routeError{Flow: msg.Flow, Unreachable: msg.Target})
}

// reportBreak relays a RERR one hop toward the flow's origin, or counts
// the path break there — or at host, when the origin is unreachable.
func (r *router) reportBreak(host packet.NodeID, rerr routeError) {
	if rerr.Flow.Source == host {
		r.pathBreaks++
		return
	}
	e, ok := r.route(host, rerr.Flow.Source)
	if !ok {
		r.pathBreaks++ // unreportable break still counts
		return
	}
	r.world.Unicast(host, e.nextHop, rerrBytes, rerr, nil)
}

// onData delivers or relays a data packet addressed to host.
func (r *router) onData(host packet.NodeID, msg dataPacket) {
	if msg.Target == host {
		r.dataDelivered++
		return
	}
	r.forwardData(host, msg)
}
