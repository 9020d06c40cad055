package obs

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
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

// TestBroadcastSeesLaterEvents: events recorded after a query are in
// the next answer, in time order, and other broadcasts stay apart.
func TestBroadcastSeesLaterEvents(t *testing.T) {
	r := NewRecorder()
	r.Record(10, Originate, bid(1, 1), 1)
	if got := len(r.Broadcast(bid(1, 1))); got != 1 {
		t.Fatalf("first query: %d events, want 1", got)
	}
	r.Record(30, Transmit, bid(1, 1), 2)
	r.Record(5, Originate, bid(2, 1), 2)
	r.Record(20, Deliver, bid(1, 1), 2)
	var kinds []Kind
	for _, e := range r.Broadcast(bid(1, 1)) {
		kinds = append(kinds, e.Kind)
	}
	if want := []Kind{Originate, Deliver, Transmit}; !slices.Equal(kinds, want) {
		t.Errorf("second query: kinds %v, want %v", kinds, want)
	}
	if got := r.Broadcast(bid(2, 1)); len(got) != 1 || got[0].Host != 2 {
		t.Errorf("other broadcast: %v", got)
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
	want := "totals: 0 originate, 2 deliver, 0 duplicate, 0 transmit, 1 inhibit, 0 garbled\n"
	if got := Totals(counts); got != want {
		t.Errorf("Totals = %q, want %q", got, want)
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

// TestRecorderJSONLRoundTrip: every kind survives Export → Decode with
// all fields intact, in recording order.
func TestRecorderJSONLRoundTrip(t *testing.T) {
	r := NewRecorder()
	kinds := []Kind{Originate, Deliver, Duplicate, Transmit, Inhibit, Garbled}
	for i, k := range kinds {
		r.Record(sim.Time(i)*1000, k, bid(packet.NodeID(i), uint32(i+1)), packet.NodeID(i+10))
	}

	var buf bytes.Buffer
	if err := Export(&buf, Meta{}, New(0), r.Events()); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), `"type":"event"`); got != len(kinds) {
		t.Fatalf("encoded %d event lines, want %d", got, len(kinds))
	}

	d, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != len(kinds) {
		t.Fatalf("decoded %d events, want %d", len(d.Events), len(kinds))
	}
	for i, e := range d.Events {
		if want := r.Events()[i]; e != want {
			t.Errorf("event %d: decoded %+v, want %+v", i, e, want)
		}
	}
}
