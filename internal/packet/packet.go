// Package packet defines the frames exchanged in the simulated MANET: the
// broadcast data packet the schemes propagate, and the periodic HELLO
// packet used for neighbor discovery. It also provides the
// (source, sequence) duplicate-detection table the paper assumes every
// host maintains.
package packet

import (
	"cmp"
	"fmt"

	"repro/internal/geom"
	"repro/internal/sim"
)

// NodeID identifies a mobile host. IDs are dense small integers assigned
// by the network at construction.
type NodeID int32

// String formats the id for traces.
func (id NodeID) String() string { return fmt.Sprintf("host%d", int32(id)) }

// Kind discriminates frame types on the air.
type Kind uint8

// Frame kinds.
const (
	KindBroadcast Kind = iota + 1 // a broadcast data packet (or rebroadcast)
	KindHello                     // a neighbor-discovery HELLO
	KindData                      // an upper-layer protocol frame (routing, application)
	KindAck                       // a link-layer acknowledgment for unicast data
	KindRTS                       // request-to-send (unicast medium reservation)
	KindCTS                       // clear-to-send (reservation grant)
)

// DestBroadcast addresses a frame to every station in range.
const DestBroadcast NodeID = -1

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindBroadcast:
		return "broadcast"
	case KindHello:
		return "hello"
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindRTS:
		return "rts"
	case KindCTS:
		return "cts"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// BroadcastID names one logical broadcast operation: the paper's
// (source ID, sequence number) tuple used for duplicate detection.
type BroadcastID struct {
	Source NodeID
	Seq    uint32
}

// String formats the id for traces.
func (b BroadcastID) String() string {
	return fmt.Sprintf("bcast(%v,#%d)", b.Source, b.Seq)
}

// CompareBroadcastID orders ids canonically, by source and then by
// sequence number — the order every checkpointed id list is written in.
func CompareBroadcastID(a, b BroadcastID) int {
	if c := cmp.Compare(a.Source, b.Source); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// Frame is one transmission on the air. Frames are immutable once
// created; receivers must not modify them.
type Frame struct {
	Kind   Kind
	Sender NodeID // the transmitting host of this frame (relayer for rebroadcasts)
	// Dest is the link-layer destination: DestBroadcast for all stations
	// in range, or a specific host for unicast data frames. The radio
	// delivers every intact frame to every in-range station; destination
	// filtering happens in the host layer, as on a real shared medium.
	Dest  NodeID
	Bytes int // frame payload length, bytes

	// Payload carries upper-layer protocol data for KindData frames
	// (e.g. routing headers). It must be treated as immutable.
	Payload any

	// Broadcast fields (Kind == KindBroadcast).
	Broadcast BroadcastID

	// SenderPos is the transmitter's position when the frame was sent.
	// The location-based schemes read it (the paper assumes GPS and that
	// senders stamp their location into the packet). Other schemes must
	// ignore it.
	SenderPos geom.Point

	// Hello fields (Kind == KindHello).
	// Neighbors carries the sender's one-hop neighbor set so receivers
	// can build two-hop knowledge, as in the neighbor-coverage scheme.
	Neighbors []NodeID
	// HelloInterval is the sender's current hello interval; with the
	// dynamic-hello-interval extension each host announces its own
	// interval so neighbors know when to expect the next HELLO.
	HelloInterval sim.Duration

	// NAV, on RTS/CTS frames, tells overhearing stations how long to
	// defer (the 802.11 network allocation vector duration).
	NAV sim.Duration

	// Recent, on HELLO frames, advertises broadcast ids the sender holds
	// (the reliable-broadcast repair extension): neighbors that missed
	// one can request a retransmission.
	Recent []BroadcastID
}

// Default frame sizes. The broadcast packet size is the paper's fixed
// parameter; the HELLO base size is our (documented) choice, with two
// bytes per advertised neighbor to model the neighbor list payload of
// the neighbor-coverage scheme.
const (
	BroadcastBytes        = 280
	HelloBaseBytes        = 64
	HelloPerNeighborBytes = 2
	HelloPerRecentBytes   = 6 // advertised broadcast id (id + seq)
)

// NewBroadcast builds a broadcast data frame.
func NewBroadcast(id BroadcastID, sender NodeID, pos geom.Point) *Frame {
	return &Frame{
		Kind:      KindBroadcast,
		Sender:    sender,
		Dest:      DestBroadcast,
		Bytes:     BroadcastBytes,
		Broadcast: id,
		SenderPos: pos,
	}
}

// NewHello builds a HELLO frame carrying the sender's neighbor set. The
// neighbor slice is copied so the caller may keep mutating its table.
func NewHello(sender NodeID, pos geom.Point, neighbors []NodeID, interval sim.Duration) *Frame {
	cp := make([]NodeID, len(neighbors))
	copy(cp, neighbors)
	return &Frame{
		Kind:          KindHello,
		Sender:        sender,
		Dest:          DestBroadcast,
		Bytes:         HelloBaseBytes + HelloPerNeighborBytes*len(cp),
		SenderPos:     pos,
		Neighbors:     cp,
		HelloInterval: interval,
	}
}

// Control frame sizes (IEEE 802.11: ACK and CTS are 14 bytes, RTS 20).
const (
	AckBytes = 14
	RTSBytes = 20
	CTSBytes = 14
)

// NewAck builds the link-layer acknowledgment for a unicast frame.
func NewAck(sender, dest NodeID, pos geom.Point) *Frame {
	return &Frame{
		Kind:      KindAck,
		Sender:    sender,
		Dest:      dest,
		Bytes:     AckBytes,
		SenderPos: pos,
	}
}

// NewRTS builds a request-to-send reserving the medium for nav.
func NewRTS(sender, dest NodeID, nav sim.Duration, pos geom.Point) *Frame {
	return &Frame{Kind: KindRTS, Sender: sender, Dest: dest, Bytes: RTSBytes,
		NAV: nav, SenderPos: pos}
}

// NewCTS builds a clear-to-send granting the medium for nav.
func NewCTS(sender, dest NodeID, nav sim.Duration, pos geom.Point) *Frame {
	return &Frame{Kind: KindCTS, Sender: sender, Dest: dest, Bytes: CTSBytes,
		NAV: nav, SenderPos: pos}
}

// NewData builds an upper-layer protocol frame. dest may be a specific
// host or DestBroadcast. The Broadcast id field is left zero; protocols
// that need duplicate detection carry their own identifiers in the
// payload.
func NewData(sender, dest NodeID, bytes int, payload any, pos geom.Point) *Frame {
	return &Frame{
		Kind:      KindData,
		Sender:    sender,
		Dest:      dest,
		Bytes:     bytes,
		Payload:   payload,
		SenderPos: pos,
	}
}

// DedupTable records which broadcast ids a host has already seen, so the
// host can tell first receptions from duplicates. The table only grows;
// at the simulation scales used here (tens of thousands of broadcasts)
// that is cheap, and it exactly matches the paper's requirement that a
// host "can detect duplicate broadcast packets". The zero value is ready
// to use — the map is allocated on first Observe — so tables can live in
// slab allocations.
//
// A table that has been checkpointed also keeps its ids as an ordered
// log (see SnapshotAppend), so the next checkpoint sorts only what was
// observed since. The log sits behind a pointer: a table that is never
// checkpointed pays one word and a nil check per first reception.
type DedupTable struct {
	seen map[BroadcastID]bool
	log  *dedupLog
}

// Observe records id and reports whether this was the first time it was
// seen (true = first reception).
func (t *DedupTable) Observe(id BroadcastID) bool {
	if t.seen[id] {
		return false
	}
	if t.seen == nil {
		t.seen = make(map[BroadcastID]bool)
	}
	t.seen[id] = true
	if t.log != nil {
		t.log.ids = append(t.log.ids, id)
	}
	return true
}

// Seen reports whether id has been observed without recording anything.
func (t *DedupTable) Seen(id BroadcastID) bool { return t.seen[id] }
