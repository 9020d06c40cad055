// Package trace records per-broadcast event timelines from a simulation
// run: origination, deliveries, rebroadcast transmissions, inhibit
// decisions, and collision-garbled receptions. It exists for debugging,
// for tests that assert causal sequences, and for the kind of
// packet-level forensics the paper's storm analysis is built on.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds.
const (
	// Originate: the source put a new broadcast into the network.
	Originate Kind = iota + 1
	// Deliver: a host received its first intact copy.
	Deliver
	// Duplicate: a host received a redundant intact copy.
	Duplicate
	// Transmit: a host's (re)broadcast transmission started.
	Transmit
	// Inhibit: a host's scheme cancelled its pending rebroadcast.
	Inhibit
	// Garbled: a collision destroyed a copy at a host.
	Garbled
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Originate:
		return "originate"
	case Deliver:
		return "deliver"
	case Duplicate:
		return "duplicate"
	case Transmit:
		return "transmit"
	case Inhibit:
		return "inhibit"
	case Garbled:
		return "garbled"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded occurrence.
type Event struct {
	At        sim.Time
	Kind      Kind
	Broadcast packet.BroadcastID
	Host      packet.NodeID
}

// String formats the event for dumps.
func (e Event) String() string {
	return fmt.Sprintf("%v %-9s %v @%v", e.At, e.Kind, e.Broadcast, e.Host)
}

// Recorder accumulates every event of a run. It is not safe for
// concurrent use; a simulation is single-threaded.
type Recorder struct {
	events []Event
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends an event.
func (r *Recorder) Record(at sim.Time, kind Kind, bid packet.BroadcastID, host packet.NodeID) {
	r.events = append(r.events, Event{At: at, Kind: kind, Broadcast: bid, Host: host})
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Events returns all recorded events in recording order. The returned
// slice is the recorder's storage; callers must not modify it.
func (r *Recorder) Events() []Event { return r.events }

// Broadcast returns the events of one broadcast in time order.
func (r *Recorder) Broadcast(bid packet.BroadcastID) []Event {
	var out []Event
	for _, e := range r.events {
		if e.Broadcast == bid {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// CountByKind tallies recorded events per kind.
func (r *Recorder) CountByKind() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range r.events {
		out[e.Kind]++
	}
	return out
}

// Dump renders the timeline of one broadcast as indented text.
func (r *Recorder) Dump(bid packet.BroadcastID) string {
	events := r.Broadcast(bid)
	if len(events) == 0 {
		return fmt.Sprintf("no events for %v\n", bid)
	}
	var b strings.Builder
	start := events[0].At
	fmt.Fprintf(&b, "timeline of %v:\n", bid)
	for _, e := range events {
		fmt.Fprintf(&b, "  +%8.3fms  %-9s  %v\n",
			float64(e.At.Sub(start))/1000, e.Kind, e.Host)
	}
	return b.String()
}
