package packet

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

func TestCompareBroadcastID(t *testing.T) {
	for _, tc := range []struct {
		a, b BroadcastID
		want int
	}{
		{BroadcastID{1, 5}, BroadcastID{1, 5}, 0},
		{BroadcastID{1, 5}, BroadcastID{2, 0}, -1},
		{BroadcastID{-1, 9}, BroadcastID{0, 0}, -1},
		{BroadcastID{3, 2}, BroadcastID{3, 1}, 1},
		// A subtraction of the sequence numbers wraps here wherever int
		// is 32 bits.
		{BroadcastID{0, 1 << 31}, BroadcastID{0, 0}, 1},
		{BroadcastID{0, 0}, BroadcastID{0, 1<<32 - 1}, -1},
	} {
		if got := CompareBroadcastID(tc.a, tc.b); got != tc.want {
			t.Errorf("CompareBroadcastID(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
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
