// Package routing implements an AODV-style on-demand routing protocol
// on top of the broadcast-storm world — the application the paper's
// introduction motivates. A discovery floods a route request (RREQ) as
// a manet broadcast, so every relay goes through the hosts' one
// rebroadcast path under any of the paper's suppression schemes; the
// target answers with a route reply (RREP) unicast hop by hop along the
// reverse path the request installed. On top of discovery the package
// runs an expanding-ring search (TTL-scoped floods that widen on
// timeout) and route maintenance (data packets along established routes,
// route errors (RERR) back to the source when a link breaks).
//
// The protocol is deliberately minimal — no sequence-number freshness,
// no precursor lists, no local repair: it exists to measure how the
// broadcast schemes behave as the route-discovery transport, which is
// exactly what the MANET routing papers the paper cites use flooding
// for.
package routing

import "repro/internal/packet"

// routeRequest is the payload of an RREQ broadcast; the broadcast's id
// names the discovery attempt.
type routeRequest struct {
	Target   packet.NodeID
	HopCount int // hops traversed so far
	// TTL bounds the flood radius in hops; 0 means unlimited. The
	// expanding-ring search issues the discovery with growing TTLs.
	TTL int
}

// routeReply is the hop-by-hop unicast answer (RREP).
type routeReply struct {
	Request  packet.BroadcastID // the RREQ answered
	Target   packet.NodeID      // the host that was searched for
	HopCount int                // hops from the target so far
}

// replyBytes is an RREP's wire size: a small control frame. RREQs are
// manet broadcasts of the paper's packet size, so the storm dynamics
// match the broadcast experiments.
const replyBytes = 44
