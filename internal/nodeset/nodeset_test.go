package nodeset

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
)

func TestSetBasics(t *testing.T) {
	s := New(100)
	if s.Count() != 0 || s.Contains(0) || s.Contains(99) {
		t.Fatal("fresh set not empty")
	}
	if !s.Add(5) || !s.Add(63) || !s.Add(64) || !s.Add(99) {
		t.Fatal("Add reported existing for new ids")
	}
	if s.Add(5) {
		t.Error("Add reported new for existing id")
	}
	if s.Count() != 4 {
		t.Errorf("Count = %d, want 4", s.Count())
	}
	for _, id := range []packet.NodeID{5, 63, 64, 99} {
		if !s.Contains(id) {
			t.Errorf("Contains(%d) = false", id)
		}
	}
	if s.Contains(6) || s.Contains(65) {
		t.Error("Contains true for absent id")
	}
	if !s.Remove(63) || s.Remove(63) || s.Remove(7) {
		t.Error("Remove presence reporting wrong")
	}
	if s.Count() != 3 || s.Contains(63) {
		t.Error("Remove did not delete")
	}
	s.Clear()
	if s.Count() != 0 || s.Contains(5) {
		t.Error("Clear left members behind")
	}
}

func TestSetZeroValueGrows(t *testing.T) {
	var s Set
	if s.Contains(1000) {
		t.Error("zero-value set contains id")
	}
	if s.Remove(1000) {
		t.Error("Remove on empty zero-value set reported presence")
	}
	if !s.Add(1000) || !s.Contains(1000) || s.Count() != 1 {
		t.Error("zero-value set did not grow on Add")
	}
}

func TestSetIterationSorted(t *testing.T) {
	s := New(300)
	want := []packet.NodeID{0, 1, 63, 64, 65, 127, 128, 255, 299}
	for i := len(want) - 1; i >= 0; i-- {
		s.Add(want[i])
	}
	got := s.AppendIDs(nil)
	if len(got) != len(want) {
		t.Fatalf("AppendIDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendIDs = %v, want %v", got, want)
		}
	}
	// AppendIDs must reuse the provided buffer.
	buf := make([]packet.NodeID, 0, len(want))
	out := s.AppendIDs(buf)
	if &out[0] != &buf[:1][0] {
		t.Error("AppendIDs reallocated despite sufficient capacity")
	}
}

func TestSetCopyFrom(t *testing.T) {
	a := New(128)
	for _, id := range []packet.NodeID{1, 50, 100} {
		a.Add(id)
	}
	b := New(0)
	b.CopyFrom(a)
	if b.Count() != 3 || !b.Contains(50) {
		t.Fatal("CopyFrom missed members")
	}
	b.Remove(50)
	if !a.Contains(50) {
		t.Error("CopyFrom aliased storage")
	}
}

func TestSetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := New(64)
	ref := map[packet.NodeID]bool{}
	for i := 0; i < 20000; i++ {
		id := packet.NodeID(rng.Intn(500))
		switch rng.Intn(3) {
		case 0:
			if s.Add(id) == ref[id] {
				t.Fatalf("Add(%d) newness mismatch", id)
			}
			ref[id] = true
		case 1:
			if s.Remove(id) != ref[id] {
				t.Fatalf("Remove(%d) presence mismatch", id)
			}
			delete(ref, id)
		default:
			if s.Contains(id) != ref[id] {
				t.Fatalf("Contains(%d) mismatch", id)
			}
		}
	}
	if s.Count() != len(ref) {
		t.Fatalf("Count = %d, map has %d", s.Count(), len(ref))
	}
}

func TestUnionIntersection(t *testing.T) {
	a, b, s := New(200), New(200), New(200)
	for _, id := range []packet.NodeID{1, 63, 64, 100, 199} {
		a.Add(id)
	}
	for _, id := range []packet.NodeID{0, 63, 64, 101, 199} {
		b.Add(id)
	}
	s.Add(2)  // pre-existing member outside the intersection
	s.Add(63) // pre-existing member inside the intersection
	s.UnionIntersection(a, b)
	want := []packet.NodeID{2, 63, 64, 199}
	if s.Count() != len(want) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(want))
	}
	for _, id := range want {
		if !s.Contains(id) {
			t.Errorf("missing %d", id)
		}
	}
	if s.Contains(1) || s.Contains(0) || s.Contains(100) || s.Contains(101) {
		t.Error("non-intersection id leaked in")
	}
	// Idempotent: applying again must not change the count.
	s.UnionIntersection(a, b)
	if s.Count() != len(want) {
		t.Errorf("second application changed Count to %d", s.Count())
	}
}

func TestUnionIntersectionAliasing(t *testing.T) {
	// s |= s & b with s as an operand must behave like the map oracle.
	s, b := New(128), New(128)
	for _, id := range []packet.NodeID{3, 64, 70} {
		s.Add(id)
	}
	for _, id := range []packet.NodeID{3, 70, 99} {
		b.Add(id)
	}
	s.UnionIntersection(s, b)
	if s.Count() != 3 || !s.Contains(3) || !s.Contains(64) || !s.Contains(70) {
		t.Errorf("aliased UnionIntersection corrupted the set: count=%d", s.Count())
	}
}

func TestUnionIntersectionMismatchedSizes(t *testing.T) {
	a, b := New(64), New(512)
	a.Add(10)
	b.Add(10)
	b.Add(400)
	var s Set
	s.UnionIntersection(a, b)
	if s.Count() != 1 || !s.Contains(10) {
		t.Errorf("mismatched-size intersection wrong: count=%d", s.Count())
	}
	s2 := New(0)
	s2.UnionIntersection(b, a)
	if s2.Count() != 1 || !s2.Contains(10) {
		t.Errorf("reversed mismatched-size intersection wrong: count=%d", s2.Count())
	}
}

func TestAppendAnd(t *testing.T) {
	a, b := New(300), New(300)
	var want []packet.NodeID
	rng := rand.New(rand.NewSource(7))
	for id := packet.NodeID(0); id < 300; id++ {
		ina, inb := rng.Intn(3) == 0, rng.Intn(3) == 0
		if ina {
			a.Add(id)
		}
		if inb {
			b.Add(id)
		}
		if ina && inb {
			want = append(want, id)
		}
	}
	buf := make([]packet.NodeID, 0, 4)
	buf = append(buf, 999) // AppendAnd must append, not overwrite
	got := a.AppendAnd(b, buf)
	if got[0] != 999 {
		t.Fatal("AppendAnd clobbered existing buffer contents")
	}
	got = got[1:]
	if len(got) != len(want) {
		t.Fatalf("intersection size %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("intersection[%d] = %d, want %d (must be ascending)", i, got[i], want[i])
		}
	}
	// Symmetric and size-mismatch tolerant.
	small := New(64)
	small.Add(40)
	a.Add(40)
	if out := small.AppendAnd(a, nil); len(out) != 1 || out[0] != 40 {
		t.Errorf("mismatched-size AppendAnd = %v", out)
	}
}
