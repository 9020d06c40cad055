package packet

import (
	"fmt"
	"slices"
)

// dedupLog is a checkpointed table's ids: ids[:sorted] in canonical
// order, ids[sorted:] the first receptions observed since the last
// snapshot, in arrival order. tail is the merge's scratch.
type dedupLog struct {
	ids    []BroadcastID
	sorted int
	tail   []BroadcastID
}

// SnapshotAppend appends the broadcast ids the table has observed to a
// caller-owned buffer, in canonical CompareBroadcastID order for the
// checkpoint codec; documents pool that buffer across snapshots. The
// first call sorts every id and keeps them as the table's ordered log;
// later calls sort only the ids observed since and merge them in, so a
// checkpoint cadence pays for what changed plus one copy.
func (t *DedupTable) SnapshotAppend(ids []BroadcastID) []BroadcastID {
	l := t.log
	if l == nil {
		l = &dedupLog{ids: make([]BroadcastID, 0, len(t.seen))}
		for id := range t.seen {
			l.ids = append(l.ids, id)
		}
		slices.SortFunc(l.ids, CompareBroadcastID)
		l.sorted = len(l.ids)
		t.log = l
	}
	l.merge()
	return append(ids, l.ids...)
}

// merge sorts the tail and merges it into the sorted prefix in place,
// backwards and a block at a time: for the largest unplaced tail id, the
// prefix ids above it move up past every tail id still to place in one
// copy, and it takes the slot below them. Each prefix id moves once, and
// the tail costs one binary search per id.
func (l *dedupLog) merge() {
	if l.sorted == len(l.ids) {
		return
	}
	l.tail = append(l.tail[:0], l.ids[l.sorted:]...)
	slices.SortFunc(l.tail, CompareBroadcastID)
	end := l.sorted // ids[:end] is the prefix not moved yet
	for j := len(l.tail) - 1; j >= 0; j-- {
		at, _ := slices.BinarySearchFunc(l.ids[:end], l.tail[j], CompareBroadcastID)
		copy(l.ids[at+j+1:], l.ids[at:end])
		l.ids[at+j] = l.tail[j]
		end = at
	}
	l.sorted = len(l.ids)
}

// Restore fills an empty table with a checkpointed id set. The table
// starts without a log: decoded input is not trusted to be in order, so
// the next snapshot sorts from the map.
func (t *DedupTable) Restore(ids []BroadcastID) error {
	if len(t.seen) != 0 {
		return fmt.Errorf("packet: restore into a non-empty dedup table")
	}
	t.log = nil
	if t.seen == nil {
		t.seen = make(map[BroadcastID]bool, len(ids))
	}
	for _, id := range ids {
		if t.seen[id] {
			return fmt.Errorf("packet: duplicate id %v in dedup restore", id)
		}
		t.seen[id] = true
	}
	return nil
}
