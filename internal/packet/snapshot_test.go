package packet

import (
	"slices"
	"testing"
)

// canonical returns a set's ids in CompareBroadcastID order.
func canonical[V any](set map[BroadcastID]V) []BroadcastID {
	ids := make([]BroadcastID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, CompareBroadcastID)
	return ids
}

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

// FuzzDedupSnapshotAppend drives a table through an arbitrary
// interleaving of Observe, SnapshotAppend and Restore, three bytes per
// operation: a selector and two id bytes. The id space is small, so
// duplicates are common, and reaches sequence numbers at and above 2³¹.
// Every answer is checked against a plain set: Seen and Observe must
// agree with it, and every snapshot must list its ids in canonical
// order whatever mix of first-call sort and later tail merges built it.
// Restore moves the table's snapshot into a fresh table — one that has
// itself been snapshotted while empty when the first id byte is odd —
// and the run continues on that table.
func FuzzDedupSnapshotAppend(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x10, 3, 5, 0x00, 1, 0, 0x20, 2, 5, 0, 0, 0, 0x00, 0, 6, 0, 0})
	f.Add([]byte{5, 0, 0, 0, 0x70, 0x81, 0, 0x70, 0x01, 6, 1, 0, 7, 1, 0, 0, 0x80, 0x80, 5, 2, 0})

	f.Fuzz(func(t *testing.T, ops []byte) {
		var d DedupTable
		model := map[BroadcastID]bool{}
		for i := 0; i+3 <= len(ops); i += 3 {
			sel, a, b := ops[i]%8, ops[i+1], ops[i+2]
			switch {
			case sel < 5:
				id := BroadcastID{Source: NodeID(int8(a) >> 4), Seq: uint32(b & 0x7f)}
				if b&0x80 != 0 {
					id.Seq |= 1 << 31
				}
				if d.Seen(id) != model[id] {
					t.Fatalf("op %d: Seen(%v) = %v, want %v", i/3, id, !model[id], model[id])
				}
				if d.Observe(id) == model[id] {
					t.Fatalf("op %d: Observe(%v) = %v, want %v", i/3, id, model[id], !model[id])
				}
				model[id] = true
			case sel < 7:
				prefix := make([]BroadcastID, a%3)
				for j := range prefix {
					prefix[j] = BroadcastID{Source: 99, Seq: uint32(j)}
				}
				got := d.SnapshotAppend(slices.Clone(prefix))
				if !slices.Equal(got[:len(prefix)], prefix) {
					t.Fatalf("op %d: SnapshotAppend overwrote the buffer's prefix", i/3)
				}
				want := canonical(model)
				if !slices.Equal(got[len(prefix):], want) {
					t.Fatalf("op %d: snapshot %v, want %v", i/3, got[len(prefix):], want)
				}
			default:
				var next DedupTable
				if a%2 == 1 {
					next.SnapshotAppend(nil)
				}
				if err := next.Restore(d.SnapshotAppend(nil)); err != nil {
					t.Fatalf("op %d: %v", i/3, err)
				}
				d = next
			}
		}
	})
}
