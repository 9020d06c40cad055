package manet

import (
	"repro/internal/packet"
	"repro/internal/sim"
)

// This file implements the reliable-broadcast repair extension the paper
// suggests its schemes can underpin ("the result in this paper may serve
// as an underlying facility to implement reliable broadcast"). The
// best-effort dissemination runs unchanged; on top of it:
//
//   - every host piggybacks the broadcast ids it received within
//     repairWindow onto its periodic HELLOs;
//   - a host that hears an advertisement for a packet it missed unicasts
//     a repair request (NACK) to the advertiser, at most once per packet;
//   - the advertiser answers with a unicast retransmission of the packet,
//     which counts as a delivery but is never rebroadcast further.
//
// Both control messages ride the MAC's unicast ARQ (DATA/ACK), so
// repairs survive collisions that best-effort copies did not.

// repairRequest asks the destination to retransmit a broadcast packet.
type repairRequest struct {
	ID packet.BroadcastID
}

// repairResponse carries the retransmitted packet.
type repairResponse struct {
	ID packet.BroadcastID
}

// Wire sizes: the request is a small control message; the response
// carries the full broadcast payload.
const (
	repairRequestBytes  = 32
	repairResponseBytes = packet.BroadcastBytes
)

// repairWindow is how long a received broadcast stays advertised.
const repairWindow = 10 * sim.Second

// recentEntry is one advertised broadcast.
type recentEntry struct {
	id    packet.BroadcastID
	heard sim.Time
}

// noteRecent records a received broadcast for future advertisement and
// retires any NACK marker for it: the dedup test short-circuits the nacked
// test for every id the host holds, so the entry can never be read
// again — deleting it is invisible to behavior and keeps the NACK set
// bounded by still-missing packets instead of growing for the whole run.
func (h *host) noteRecent(bid packet.BroadcastID) {
	if !h.net.cfg.Repair {
		return
	}
	hs := h.hello
	if hs.nacked != nil {
		delete(hs.nacked, bid)
	}
	hs.recent = append(hs.recent, recentEntry{id: bid, heard: h.net.sched.Now()})
}

// appendRecentIDs appends the ids still inside the advertisement window
// to buf, pruning expired entries in place.
func (h *host) appendRecentIDs(buf []packet.BroadcastID) []packet.BroadcastID {
	cutoff := h.net.sched.Now().Add(-repairWindow)
	hs := h.hello
	keep := hs.recent[:0]
	for _, e := range hs.recent {
		if e.heard >= cutoff {
			keep = append(keep, e)
			buf = append(buf, e.id)
		}
	}
	hs.recent = keep
	return buf
}

// onHelloRecent reacts to a neighbor's advertisement: request any packet
// we missed, once.
func (h *host) onHelloRecent(from packet.NodeID, recent []packet.BroadcastID) {
	hs := h.hello
	for _, bid := range recent {
		if h.net.dedup.seen(h.id, bid.Seq) || hs.nacked[bid] {
			continue
		}
		if hs.nacked == nil {
			hs.nacked = make(map[packet.BroadcastID]bool)
		}
		hs.nacked[bid] = true
		h.net.repairsRequested++
		h.net.Unicast(h.id, from, repairRequestBytes, repairRequest{ID: bid}, nil)
	}
}

// onRepairFrame handles the repair control plane (KindData frames).
func (h *host) onRepairFrame(f *packet.Frame) {
	switch msg := f.Payload.(type) {
	case repairRequest:
		if f.Dest != h.id || !h.net.dedup.seen(h.id, msg.ID.Seq) {
			return
		}
		h.net.Unicast(h.id, f.Sender, repairResponseBytes, repairResponse{ID: msg.ID}, nil)
	case repairResponse:
		if f.Dest != h.id {
			return
		}
		if h.net.dedup.observe(h.id, msg.ID.Seq) {
			// A repaired delivery: counted as received, never forwarded
			// (the best-effort wave has long passed). noteRecent retires
			// the NACK marker.
			h.net.repairsDelivered++
			h.net.noteReceived(msg.ID, h)
			h.noteRecent(msg.ID)
		}
	}
}
