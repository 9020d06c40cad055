package nodeset

import (
	"sort"
	"testing"

	"repro/internal/packet"
)

// FuzzNodeSet interprets the input as a little op language driving a Set
// and a map-based oracle in lockstep: every mutation's return value and
// every query must agree with the oracle, and iteration must visit the
// oracle's exact contents in ascending order. Ids are bounded to one
// byte so grow() stays cheap; the bitset's word math is identical at any
// scale.
func FuzzNodeSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0, 5, 2, 5, 1, 5, 2, 5})          // add, re-add, contains, remove
	f.Add([]byte{0, 63, 0, 64, 0, 127, 5, 0, 3, 0})      // word-boundary ids, verify, clear
	f.Add([]byte{0, 1, 0, 200, 4, 0, 0, 7, 5, 0})        // copy then diverge
	f.Add([]byte{0, 255, 1, 254, 2, 255, 3, 0, 5, 0})    // top id, absent remove
	f.Add([]byte{0, 10, 0, 20, 0, 30, 4, 0, 3, 0, 5, 0}) // copy survives source clear

	verify := func(t *testing.T, s *Set, oracle map[packet.NodeID]bool, label string) {
		t.Helper()
		if s.Count() != len(oracle) {
			t.Fatalf("%s: Count = %d, oracle has %d", label, s.Count(), len(oracle))
		}
		want := make([]packet.NodeID, 0, len(oracle))
		for id := range oracle {
			want = append(want, id)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := s.AppendIDs(nil)
		if len(got) != len(want) {
			t.Fatalf("%s: AppendIDs returned %d ids, want %d", label, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: AppendIDs[%d] = %v, want %v", label, i, got[i], want[i])
			}
		}
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		set := New(8)
		other := New(0)
		oracle := map[packet.NodeID]bool{}
		otherOracle := map[packet.NodeID]bool{}
		for i := 0; i+1 < len(ops); i += 2 {
			id := packet.NodeID(ops[i+1])
			switch ops[i] % 6 {
			case 0:
				if got, want := set.Add(id), !oracle[id]; got != want {
					t.Fatalf("op %d: Add(%v) = %v, want %v", i, id, got, want)
				}
				oracle[id] = true
			case 1:
				if got, want := set.Remove(id), oracle[id]; got != want {
					t.Fatalf("op %d: Remove(%v) = %v, want %v", i, id, got, want)
				}
				delete(oracle, id)
			case 2:
				if got, want := set.Contains(id), oracle[id]; got != want {
					t.Fatalf("op %d: Contains(%v) = %v, want %v", i, id, got, want)
				}
			case 3:
				set.Clear()
				oracle = map[packet.NodeID]bool{}
			case 4:
				other.CopyFrom(set)
				otherOracle = make(map[packet.NodeID]bool, len(oracle))
				for k := range oracle {
					otherOracle[k] = true
				}
			case 5:
				verify(t, set, oracle, "set")
				verify(t, other, otherOracle, "copy")
			}
		}
		verify(t, set, oracle, "final set")
		verify(t, other, otherOracle, "final copy")
	})
}
