// Package snapshot defines the simulator's checkpoint document — the
// full deterministic state of a run frozen at a barrier — and its
// versioned wire codec. The document is a passive data model: each
// simulation layer contributes its own checkpointed state type
// (sim.SchedulerState, phy.ChannelState, mac.MACState, ...), and the
// manet package converts between live networks and this document. The
// codec is big-endian, canonical (any accepted input re-encodes to the
// identical bytes), and strict — truncation, trailing bytes, unknown
// versions, non-canonical booleans, and counts larger than the bytes
// remaining are all errors, and an error never comes with a partial
// document.
package snapshot

import (
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/neighbor"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// Payload kinds a checkpointed frame can carry. The simulator's only
// opaque frame payloads are the repair extension's two control messages;
// everything else checkpoints as PayloadNone.
const (
	PayloadNone uint8 = iota
	PayloadRepairRequest
	PayloadRepairResponse
)

// Observer kinds (see Observer).
const (
	ObsNone uint8 = iota
	ObsHello
	ObsPending
	ObsOrigin
)

// Frame is one live frame in the identity table. Frames referenced from
// several places (a MAC queue record and the rebroadcast decision that
// enqueued it, say) appear once and are shared again after restore.
// Reference 0 is reserved for "no frame"; table entries are referenced
// as index+1.
type Frame struct {
	Kind          uint8
	Sender        packet.NodeID
	Dest          packet.NodeID
	Bytes         int64
	Broadcast     packet.BroadcastID
	SenderPos     [2]float64
	Neighbors     []packet.NodeID
	HelloInterval sim.Duration
	Recent        []packet.BroadcastID
	PayloadKind   uint8
	PayloadID     packet.BroadcastID
}

// Observer identifies a MAC transmission observer: none, a host's HELLO
// observer, the open rebroadcast decision for (Host, Bid), or a fresh
// origination observer over FrameRef. Reference 0 is reserved for the
// nil observer; table entries are referenced as index+1.
type Observer struct {
	Kind     uint8
	Host     int32
	Bid      packet.BroadcastID
	FrameRef uint32
}

// PendingDecision is one open rebroadcast decision (the paper's
// per-packet waiting state), in the host's live-list order.
type PendingDecision struct {
	Bid       packet.BroadcastID
	Judge     scheme.JudgeState
	Started   bool
	HasAssess bool
	AssessAt  sim.Time
	AssessSeq uint64
	FrameRef  uint32
}

// RecentBroadcast is one advertised broadcast of the repair extension.
type RecentBroadcast struct {
	ID    packet.BroadcastID
	Heard sim.Time
}

// Host is one host's checkpointed state.
type Host struct {
	Dedup   []packet.BroadcastID
	RNG     [4]uint64
	Mover   mobility.RoamerState
	Table   neighbor.TableState
	MAC     mac.MACState
	Pending []PendingDecision

	HelloFly      []uint32
	HasHelloTimer bool
	HelloAt       sim.Time
	HelloSeq      uint64

	Recent []RecentBroadcast
	Nacked []packet.BroadcastID
}

// Record is one retained per-broadcast bookkeeping record with its
// open-reference count.
type Record struct {
	ID           packet.BroadcastID
	Start        sim.Time
	Reachable    int64
	Received     int64
	Transmitted  int64
	LastActivity sim.Time
	Open         int32
}

// Origination is one not-yet-fired workload broadcast request.
type Origination struct {
	Src int32
	At  sim.Time
	Seq uint64
}

// Network is the network-level checkpointed state: the broadcast
// sequence counter, the run's end time, run counters, the record arena,
// the streaming aggregates' fold history, and the pending workload
// originations.
type Network struct {
	Seq              uint32
	EndTime          sim.Time
	HelloSent        int64
	RepairsRequested int64
	RepairsDelivered int64

	Records []Record
	RecBase uint32
	Stream  metrics.StreamState

	Originations []Origination
}

// Checkpoint is the full document: a configuration digest (restore
// refuses a contradictory configuration), the scheduler counters, the
// channel, the network-level state, the frame and observer identity
// tables, and every host.
type Checkpoint struct {
	Digest    string
	Sched     sim.SchedulerState
	Channel   phy.ChannelState
	Net       Network
	Frames    []Frame
	Observers []Observer
	Hosts     []Host
}
