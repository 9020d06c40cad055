package manet

import (
	"testing"

	"repro/internal/scheme"
	"repro/internal/trace"
)

// TestTracerCausality runs a small network with a tracer attached and
// checks causal ordering per broadcast: origination precedes every other
// event; every transmit by a non-source host is preceded by its first
// delivery; inhibits and transmits are mutually exclusive per host.
func TestTracerCausality(t *testing.T) {
	cfg := Config{
		Hosts:    15,
		MapUnits: 3,
		Scheme:   scheme.Counter{C: 2},
		Requests: 8,
		Seed:     3,

		RetainRecords: true,
		Placement:     cluster(15),
		Static:        true,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	n.Tracer = rec
	n.Run()

	if rec.Len() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	counts := rec.CountByKind()
	if counts[trace.Originate] != 8 {
		t.Errorf("originations = %d, want 8", counts[trace.Originate])
	}
	// C=2 in a dense cluster must produce some inhibits.
	if counts[trace.Inhibit] == 0 {
		t.Error("no inhibit events for C=2 in a dense cluster")
	}

	for _, brec := range n.Records() {
		events := rec.Broadcast(brec.ID)
		if len(events) == 0 {
			t.Fatalf("no events for %v", brec.ID)
		}
		if events[0].Kind != trace.Originate {
			t.Errorf("%v: first event is %v, want originate", brec.ID, events[0].Kind)
		}
		delivered := map[int32]bool{int32(brec.ID.Source): true}
		acted := map[int32]string{}
		txCount := 0
		for _, e := range events {
			hid := int32(e.Host)
			switch e.Kind {
			case trace.Deliver:
				delivered[hid] = true
			case trace.Transmit:
				txCount++
				if !delivered[hid] {
					t.Errorf("%v: host %d transmitted before delivery", brec.ID, hid)
				}
				if prev, ok := acted[hid]; ok {
					t.Errorf("%v: host %d acted twice (%s then transmit)", brec.ID, hid, prev)
				}
				acted[hid] = "transmit"
			case trace.Inhibit:
				if prev, ok := acted[hid]; ok {
					t.Errorf("%v: host %d acted twice (%s then inhibit)", brec.ID, hid, prev)
				}
				acted[hid] = "inhibit"
			}
		}
		if txCount != brec.Transmitted {
			t.Errorf("%v: trace transmits %d != record %d", brec.ID, txCount, brec.Transmitted)
		}
	}
}

// TestTracerDeliveryCountsMatchRecords cross-checks the tracer against
// the metrics bookkeeping for a mobile run.
func TestTracerDeliveryCountsMatchRecords(t *testing.T) {
	cfg := Config{
		Hosts:    25,
		MapUnits: 5,
		Scheme:   scheme.AdaptiveCounter{},
		Requests: 10,

		RetainRecords: true,
		Seed:          9,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	n.Tracer = rec
	n.Run()

	for _, brec := range n.Records() {
		delivers := 0
		for _, e := range rec.Broadcast(brec.ID) {
			if e.Kind == trace.Deliver {
				delivers++
			}
		}
		// Received counts the source plus all first deliveries.
		if delivers+1 != brec.Received {
			t.Errorf("%v: trace delivers+1 = %d, record r = %d",
				brec.ID, delivers+1, brec.Received)
		}
	}
}
