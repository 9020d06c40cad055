package packet

import (
	"fmt"
	"slices"
)

// SnapshotAppend appends the broadcast ids the table has observed to a
// caller-owned buffer, in canonical ascending (source, seq) order for the
// checkpoint codec; documents pool that buffer across snapshots.
func (t *DedupTable) SnapshotAppend(ids []BroadcastID) []BroadcastID {
	base := len(ids)
	for id := range t.seen {
		ids = append(ids, id)
	}
	tail := ids[base:]
	slices.SortFunc(tail, func(a, b BroadcastID) int {
		if a.Source != b.Source {
			return int(a.Source) - int(b.Source)
		}
		return int(a.Seq) - int(b.Seq)
	})
	return ids
}

// Restore fills an empty table with a checkpointed id set.
func (t *DedupTable) Restore(ids []BroadcastID) error {
	if len(t.seen) != 0 {
		return fmt.Errorf("packet: restore into a non-empty dedup table")
	}
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
