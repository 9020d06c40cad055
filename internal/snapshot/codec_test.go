package snapshot

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/neighbor"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// testCheckpoint builds a synthetic document exercising every branch of
// the codec: lanes, loss state, active flights, all observer kinds, all
// judge kinds, optional timers present and absent, and the repair
// extension's payloads.
func testCheckpoint() *Checkpoint {
	bid := func(src, seq uint32) packet.BroadcastID {
		return packet.BroadcastID{Source: packet.NodeID(src), Seq: seq}
	}
	return &Checkpoint{
		Digest: "hosts=30 seed=7",
		Sched: sim.SchedulerState{
			Now: 12345, Seq: 678, Executed: 900,
			PoolHits: 11, PoolMisses: 3, FreeLen: 5,
			Lanes: []sim.LaneState{
				{Seq: 1 << 32, FreeLen: 2},
				{Seq: 2 << 32, FreeLen: 0},
			},
		},
		Channel: phy.ChannelState{
			Stats:   phy.Stats{Transmissions: 40, Deliveries: 200, Collisions: 7, Lost: 3},
			HasLoss: true, LossRNG: [4]uint64{1, 2, 3, 4},
			MaxAir: 2240, TxPoolHits: 39, TxPoolMisses: 4, TxFreeLen: 3,
			Active: []phy.TxState{
				{
					FrameRef: 1, EnderRef: 3, Sender: 2,
					SenderPos: geom.Point{X: 10.5, Y: -2.25},
					End:       12400, EndSeq: 650,
					Receivers: []int32{0, 1, 5},
					Garbled:   []packet.NodeID{1},
				},
				{FrameRef: 2, EnderRef: 0, Sender: 7, End: 12350, EndSeq: 649},
			},
		},
		Net: Network{
			Seq: 9, EndTime: 90000, HelloSent: 12, RepairsRequested: 2, RepairsDelivered: 1,
			Records: []Record{
				{ID: bid(3, 1), Start: 100, Reachable: 30, Received: 28, Transmitted: 9, LastActivity: 450, Open: 0},
				{ID: bid(5, 2), Start: 9000, Reachable: 30, Received: 3, Transmitted: 1, LastActivity: 12340, Open: 4},
			},
			RecBase: 6,
			Stream:  metrics.StreamState{RE: []float64{0.9, 1}, SRB: []float64{0.3, 0.5}, Lat: []sim.Duration{120, 80}},
			SetPool: 4, FramePool: 2, HelloPool: 1,
			Originations: []Origination{{Src: 11, At: 15000, Seq: 40}},
		},
		Frames: []Frame{
			{
				Kind: uint8(packet.KindBroadcast), Sender: 2, Dest: packet.DestBroadcast, Bytes: 280,
				Broadcast: bid(3, 1), SenderPos: [2]float64{10.5, -2.25},
			},
			{
				Kind: uint8(packet.KindHello), Sender: 7, Dest: packet.DestBroadcast, Bytes: 76,
				Neighbors: []packet.NodeID{1, 4}, HelloInterval: 1000000,
				Recent: []packet.BroadcastID{bid(3, 1)},
			},
			{
				Kind: uint8(packet.KindData), Sender: 4, Dest: 9, Bytes: 280,
				Broadcast: bid(5, 2), PayloadKind: PayloadRepairResponse, PayloadID: bid(3, 1),
			},
			{
				Kind: uint8(packet.KindData), Sender: 9, Dest: 4, Bytes: 64,
				PayloadKind: PayloadRepairRequest, PayloadID: bid(3, 1),
			},
		},
		Observers: []Observer{
			{Kind: ObsHello, Host: 7},
			{Kind: ObsPending, Host: 0, Bid: bid(3, 1)},
			{Kind: ObsOrigin, Host: 2, Bid: bid(3, 1), FrameRef: 1},
		},
		Hosts: []Host{
			{
				Dedup: []packet.BroadcastID{bid(3, 1)},
				RNG:   [4]uint64{5, 6, 7, 8},
				Mover: mobility.RoamerState{
					SegStart: 9000, Origin: geom.Point{X: 1, Y: 2}, VX: 0.5, VY: -1,
					PrevStart: 4000, PrevOrigin: geom.Point{X: 0, Y: 0}, PrevVX: 1, PrevVY: 0,
					TurnAt: 9000, HasPrev: true, RNG: [4]uint64{9, 10, 11, 12},
					HasTurn: true, TurnEventAt: 20000, TurnEventSeq: 88,
				},
				Table: neighbor.TableState{
					Entries: []neighbor.EntryState{
						{ID: 4, LastHeard: 11000, Interval: 1000000, Deadline: 14000, ExpirySeq: 91, TwoHop: []packet.NodeID{2, 9}},
					},
					Changes: []sim.Time{500, 11000},
				},
				MAC: mac.MACState{
					Stats: mac.Stats{Enqueued: 5, Sent: 4, Cancelled: 1, AcksSent: 2, Retries: 1, Dropped: 0, Stalls: 3},
					CW:    31, RNG: [4]uint64{13, 14, 15, 16}, Busy: true, IdleSince: 11900,
					BackoffRemaining: 7, Retries: 1,
					Queue: []mac.PendingState{
						{FrameRef: 3, ObsRef: 2, Started: false},
						{Cancelled: true},
					},
					HasInflight: true, Inflight: mac.PendingState{FrameRef: 1, ObsRef: 3, Started: true},
					HasAwait: true, Await: mac.PendingState{FrameRef: 4, Retransmit: true, Started: true},
					AwaitTimerAt: 13000, AwaitTimerSeq: 95,
					HasTxEvent: true, TxEventAt: 12500, TxEventSeq: 93, TxEventBase: 12400, TxEventSlots: 4,
					HasAck: true, AckTo: 9, AckAt: 12410, AckSeq: 94,
					FreeLen: 2,
				},
				Pending: []PendingDecision{
					{Bid: bid(3, 1), Judge: scheme.JudgeState{Kind: scheme.JudgeCounter, C: 2, Threshold: 3},
						Started: true, FrameRef: 1},
					{Bid: bid(5, 2), Judge: scheme.JudgeState{Kind: scheme.JudgeLocation,
						Own: geom.Point{X: 3, Y: 4}, Radius: 500, AThreshold: 0.05,
						Senders: []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}},
						HasAssess: true, AssessAt: 12600, AssessSeq: 96, FrameRef: 2},
					{Bid: bid(9, 9), Judge: scheme.JudgeState{Kind: scheme.JudgeCoverage,
						Pending: []packet.NodeID{3, 8}}},
					{Bid: bid(9, 10), Judge: scheme.JudgeState{Kind: scheme.JudgeDistance,
						Own: geom.Point{X: 5, Y: 6}, DThreshold: 100, MinDist: 230.5}},
					{Bid: bid(9, 11), Judge: scheme.JudgeState{Kind: scheme.JudgeProbabilistic, Rebroadcast: true}},
					{Bid: bid(9, 12), Judge: scheme.JudgeState{Kind: scheme.JudgeFlooding}},
				},
				PrFree: 3, HelloFly: []uint32{2},
				HasHelloTimer: true, HelloAt: 13500, HelloSeq: 97,
				Recent: []RecentBroadcast{{ID: bid(3, 1), Heard: 11500}},
				Nacked: []packet.BroadcastID{bid(5, 2)},
			},
			{RNG: [4]uint64{1, 1, 1, 1}, Mover: mobility.RoamerState{Stopped: true}},
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	want := testCheckpoint()
	data := Append(nil, want)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot:  %+v\nwant: %+v", got, want)
	}
	if again := Append(nil, got); !bytes.Equal(again, data) {
		t.Fatal("re-encoding a decoded checkpoint changed the bytes")
	}
}

func TestAppendPreservesPrefix(t *testing.T) {
	c := testCheckpoint()
	prefix := []byte("prefix")
	out := Append(append([]byte(nil), prefix...), c)
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("Append clobbered the destination prefix")
	}
	if !bytes.Equal(out[len(prefix):], Append(nil, c)) {
		t.Fatal("Append after a prefix encoded differently from Append into nil")
	}
}

func TestWriteRead(t *testing.T) {
	want := testCheckpoint()
	got, err := Read(bytes.NewReader(Append(nil, want)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Append/Read round trip mismatch")
	}
}

// TestDecodeRejectsTruncation decodes every proper prefix of a valid
// encoding: all must fail cleanly (no panic, no partial document).
func TestDecodeRejectsTruncation(t *testing.T) {
	data := Append(nil, testCheckpoint())
	for n := 0; n < len(data); n++ {
		ck, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(data))
		}
		if ck != nil {
			t.Fatalf("prefix of %d bytes returned a partial document with its error", n)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	data := Append(nil, testCheckpoint())
	if _, err := Decode(append(data, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeRejectsBadHeader(t *testing.T) {
	data := Append(nil, testCheckpoint())

	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("corrupt magic: got %v", err)
	}

	bad = append([]byte(nil), data...)
	bad[len(Magic)] = CodecVersion + 1
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown version: got %v", err)
	}
}

// TestDecodeRejectsNonCanonicalBool locates the HasLoss boolean by
// diffing two encodings that differ only in that field, then corrupts it
// to 2: the decoder must reject any boolean byte above 1 so every
// accepted document has exactly one encoding.
func TestDecodeRejectsNonCanonicalBool(t *testing.T) {
	c := testCheckpoint()
	a := Append(nil, c)
	c.Channel.HasLoss = false
	b := Append(nil, c)
	if len(a) != len(b) {
		t.Fatal("HasLoss flip changed the encoding length")
	}
	idx := -1
	for i := range a {
		if a[i] != b[i] {
			if idx >= 0 {
				t.Fatal("HasLoss flip changed more than one byte")
			}
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("HasLoss flip changed nothing")
	}
	bad := append([]byte(nil), a...)
	bad[idx] = 2
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "boolean") {
		t.Fatalf("non-canonical boolean: got %v", err)
	}
}

// TestDecodeRejectsHugeCounts corrupts a length prefix to a value whose
// elements cannot fit in the remaining input: the decoder must bound
// counts by the bytes actually present instead of allocating.
func TestDecodeRejectsHugeCounts(t *testing.T) {
	data := Append(nil, testCheckpoint())
	// The digest length prefix is the first count in the stream, right
	// after the magic and version byte.
	bad := append([]byte(nil), data...)
	off := len(Magic) + 1
	bad[off], bad[off+1], bad[off+2], bad[off+3] = 0xff, 0xff, 0xff, 0xff
	if _, err := Decode(bad); err == nil {
		t.Fatal("absurd count accepted")
	}
}
