package manet

import (
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Protocol is an application riding the broadcast world, set as
// Network.Protocol before Run. It replaces the Requests workload with
// its own, its broadcasts (Network.Originate) are relayed through the
// hosts' one S1–S5 path under Config.Scheme, and it owns every unicast
// (KindData) frame. A Network carrying a Protocol cannot be
// checkpointed: the protocol's state lives in closures and maps no
// checkpoint can describe.
type Protocol interface {
	// Start schedules the protocol's workload when Run begins and returns
	// the time of its last origination (Config.Warmup when it has none);
	// the run ends Config.Drain after it.
	Start() sim.Time
	// Heard is called at every reception of a broadcast by host, after
	// duplicate detection (first marks S1) and before the scheme sees
	// it. On a first reception, relay false ends the host's part: no
	// judge, no rebroadcast. Otherwise the rebroadcast, if the scheme
	// lets it happen, carries payload. Both results are ignored for
	// duplicates.
	Heard(host packet.NodeID, f *packet.Frame, first bool) (payload any, relay bool)
	// ReceiveData is called for every intact KindData frame addressed to
	// host.
	ReceiveData(host packet.NodeID, f *packet.Frame)
}

// Unicast sends a KindData frame from src to dst through src's MAC,
// with DATA/ACK retransmissions. failed, if non-nil, runs when the MAC
// abandons the frame after mac.RetryLimit retries (the link is gone).
func (n *Network) Unicast(src, dst packet.NodeID, bytes int, payload any, failed func()) {
	h := n.hosts[src]
	f := packet.NewData(src, dst, bytes, payload, h.Position())
	if failed == nil {
		h.mac.Enqueue(f, nil)
		return
	}
	// The handle is read inside its own Done, before the MAC recycles
	// the record, as the MAC's pooling contract requires.
	var p *mac.Pending
	p = h.mac.Enqueue(f, mac.TxFuncs{Done: func() {
		if p.Failed() {
			failed()
		}
	}})
}

// SetRTSThreshold enables the RTS/CTS exchange on every host's unicast
// data frames of at least bytes (0 disables it, the default).
func (n *Network) SetRTSThreshold(bytes int) { n.macs.SetRTSThreshold(bytes) }

// MACStats returns the MAC counters summed over every host.
func (n *Network) MACStats() mac.Stats {
	var s mac.Stats
	for _, h := range n.hosts {
		ms := h.mac.Stats()
		s.Enqueued += ms.Enqueued
		s.Sent += ms.Sent
		s.Cancelled += ms.Cancelled
		s.AcksSent += ms.AcksSent
		s.Retries += ms.Retries
		s.Dropped += ms.Dropped
		s.Stalls += ms.Stalls
	}
	return s
}
