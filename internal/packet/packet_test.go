package packet

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/sim"
)

func TestDedupFirstThenDuplicate(t *testing.T) {
	var d DedupTable
	id := BroadcastID{Source: 3, Seq: 17}
	if !d.Observe(id) {
		t.Fatal("first observation reported as duplicate")
	}
	if d.Observe(id) {
		t.Fatal("second observation reported as first")
	}
	if !d.Seen(id) {
		t.Fatal("Seen() = false after Observe")
	}
	if d.Seen(BroadcastID{Source: 3, Seq: 18}) {
		t.Fatal("unseen id reported seen")
	}
	if got := d.SnapshotAppend(nil); !slices.Equal(got, []BroadcastID{id}) {
		t.Fatalf("table holds %v, want [%v]", got, id)
	}
}

func TestDedupDistinguishesSourceAndSeq(t *testing.T) {
	var d DedupTable
	for _, id := range []BroadcastID{{2, 2}, {1, 2}, {2, 1}, {1, 1}} {
		if !d.Observe(id) {
			t.Fatalf("id %v wrongly deduped", id)
		}
	}
	want := []BroadcastID{{1, 1}, {1, 2}, {2, 1}, {2, 2}}
	if got := d.SnapshotAppend(nil); !slices.Equal(got, want) {
		t.Fatalf("table holds %v, want %v in canonical order", got, want)
	}
}

func TestDedupProperty(t *testing.T) {
	// Observing any sequence of ids: Observe returns true exactly once
	// per distinct id, and a snapshot lists the distinct ids in canonical
	// order.
	prop := func(sources []uint8, seqs []uint8) bool {
		n := len(sources)
		if len(seqs) < n {
			n = len(seqs)
		}
		var d DedupTable
		firsts := make(map[BroadcastID]int)
		for i := 0; i < n; i++ {
			id := BroadcastID{Source: NodeID(sources[i]), Seq: uint32(seqs[i])}
			if d.Observe(id) {
				firsts[id]++
			}
		}
		for _, c := range firsts {
			if c != 1 {
				return false
			}
		}
		want := canonical(firsts)
		return slices.Equal(d.SnapshotAppend(nil), want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewBroadcastFields(t *testing.T) {
	id := BroadcastID{Source: 5, Seq: 9}
	pos := geom.Point{X: 10, Y: 20}
	f := NewBroadcast(id, 7, pos)
	if f.Kind != KindBroadcast || f.Sender != 7 || f.Broadcast != id || f.SenderPos != pos {
		t.Fatalf("broadcast frame fields wrong: %+v", f)
	}
	if f.Bytes != BroadcastBytes {
		t.Errorf("broadcast size = %d, want %d (paper parameter)", f.Bytes, BroadcastBytes)
	}
}

func TestNewHelloCopiesNeighbors(t *testing.T) {
	neigh := []NodeID{1, 2, 3}
	f := NewHello(9, geom.Point{}, neigh, 5*sim.Second)
	neigh[0] = 99
	if f.Neighbors[0] != 1 {
		t.Error("NewHello aliased the caller's neighbor slice")
	}
	if f.Bytes != HelloBaseBytes+3*HelloPerNeighborBytes {
		t.Errorf("hello size = %d", f.Bytes)
	}
	if f.HelloInterval != 5*sim.Second {
		t.Errorf("hello interval = %v", f.HelloInterval)
	}
	if f.Kind != KindHello {
		t.Errorf("kind = %v", f.Kind)
	}
}

func TestStringers(t *testing.T) {
	if NodeID(4).String() == "" || (BroadcastID{1, 2}).String() == "" {
		t.Error("empty stringer output")
	}
	if KindBroadcast.String() != "broadcast" || KindHello.String() != "hello" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind stringer empty")
	}
}

// TestConstructorFields pins the field and size conventions of the
// control-frame constructors.
func TestConstructorFields(t *testing.T) {
	pos := geom.Point{X: 1, Y: 2}
	ack := NewAck(3, 8, pos)
	if ack.Kind != KindAck || ack.Sender != 3 || ack.Dest != 8 || ack.Bytes != AckBytes || ack.SenderPos != pos {
		t.Errorf("NewAck: %+v", ack)
	}
	rts := NewRTS(2, 6, 9*sim.Microsecond, pos)
	if rts.Kind != KindRTS || rts.Bytes != RTSBytes || rts.NAV != 9*sim.Microsecond {
		t.Errorf("NewRTS: %+v", rts)
	}
	cts := NewCTS(6, 2, 7*sim.Microsecond, pos)
	if cts.Kind != KindCTS || cts.Bytes != CTSBytes || cts.NAV != 7*sim.Microsecond {
		t.Errorf("NewCTS: %+v", cts)
	}
	data := NewData(6, 1, 512, "body", pos)
	if data.Kind != KindData || data.Bytes != 512 || data.Payload != "body" {
		t.Errorf("NewData: %+v", data)
	}
}

func TestKindStringUnknown(t *testing.T) {
	if s := Kind(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("Kind(99).String() = %q", s)
	}
}
