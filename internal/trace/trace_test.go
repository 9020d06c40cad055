package trace

import (
	"strings"
	"testing"

	"repro/internal/packet"
)

func bid(src packet.NodeID, seq uint32) packet.BroadcastID {
	return packet.BroadcastID{Source: src, Seq: seq}
}

func TestRecordAndQuery(t *testing.T) {
	r := NewRecorder()
	r.Record(10, Originate, bid(1, 1), 1)
	r.Record(20, Deliver, bid(1, 1), 2)
	r.Record(15, Deliver, bid(2, 2), 3) // different broadcast
	r.Record(30, Transmit, bid(1, 1), 2)

	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
	events := r.Broadcast(bid(1, 1))
	if len(events) != 3 {
		t.Fatalf("broadcast events = %d, want 3", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Error("Broadcast() not time-ordered")
		}
	}
}

func TestCountByKind(t *testing.T) {
	r := NewRecorder()
	r.Record(1, Deliver, bid(1, 1), 1)
	r.Record(2, Deliver, bid(1, 1), 2)
	r.Record(3, Inhibit, bid(1, 1), 2)
	counts := r.CountByKind()
	if counts[Deliver] != 2 || counts[Inhibit] != 1 || counts[Transmit] != 0 {
		t.Errorf("counts = %v", counts)
	}
}

func TestDump(t *testing.T) {
	r := NewRecorder()
	r.Record(1000, Originate, bid(1, 1), 1)
	r.Record(3500, Deliver, bid(1, 1), 2)
	out := r.Dump(bid(1, 1))
	for _, want := range []string{"timeline", "originate", "deliver", "+"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	if got := r.Dump(bid(9, 9)); !strings.Contains(got, "no events") {
		t.Errorf("empty dump = %q", got)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{Originate, Deliver, Duplicate, Transmit, Inhibit, Garbled}
	names := map[string]bool{}
	for _, k := range kinds {
		names[k.String()] = true
	}
	if len(names) != len(kinds) {
		t.Error("kind names not distinct")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 5, Kind: Transmit, Broadcast: bid(1, 2), Host: 3}
	if e.String() == "" {
		t.Error("empty event string")
	}
}
