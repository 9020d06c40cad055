package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TestRecorderJSONLRoundTrip: every kind survives encode → decode with
// all fields intact, in order.
func TestRecorderJSONLRoundTrip(t *testing.T) {
	r := NewRecorder()
	kinds := []Kind{Originate, Deliver, Duplicate, Transmit, Inhibit, Garbled}
	for i, k := range kinds {
		r.Record(sim.Time(i)*1000, k, bid(packet.NodeID(i), uint32(i+1)), packet.NodeID(i+10))
	}

	var buf bytes.Buffer
	if err := r.EncodeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(kinds) {
		t.Fatalf("encoded %d lines, want %d", got, len(kinds))
	}

	back, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(kinds) {
		t.Fatalf("decoded %d events, want %d", len(back), len(kinds))
	}
	for i, e := range back {
		want := r.Events()[i]
		if e != want {
			t.Errorf("event %d: decoded %+v, want %+v", i, e, want)
		}
	}
}

func TestDecodeJSONLRejectsVersionMismatch(t *testing.T) {
	in := `{"v":999,"type":"event","t_us":1,"kind":"deliver","src":1,"seq":1,"host":2}`
	if _, err := DecodeJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("version 999 accepted")
	}
}

func TestDecodeJSONLRejectsUnknownKind(t *testing.T) {
	in := `{"v":1,"type":"event","t_us":1,"kind":"teleport","src":1,"seq":1,"host":2}`
	if _, err := DecodeJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestDecodeJSONLSkipsForeignLines: non-event lines (meta, samples from
// a full telemetry export) are skipped, so a trace decoder can read an
// obs export and see just the events.
func TestDecodeJSONLSkipsForeignLines(t *testing.T) {
	in := `{"v":1,"type":"meta","series":[]}
{"v":1,"type":"sample","t_us":5,"values":[]}
{"v":1,"type":"event","t_us":7,"kind":"transmit","src":3,"seq":9,"host":4}
`
	events, err := DecodeJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != Transmit || events[0].At != 7 {
		t.Fatalf("decoded %+v", events)
	}
}
