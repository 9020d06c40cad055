// Package nodeset provides a dense bitset over host identifiers. The
// simulators assign packet.NodeID values densely (0..N-1, the host's
// index), so membership, union, and subtraction over neighbor sets
// reduce to word-wide bit operations on a []uint64 — no hashing, no
// per-entry allocation, and iteration in sorted order for free.
package nodeset

import (
	"math/bits"

	"repro/internal/packet"
)

// Set is a bitset keyed by packet.NodeID. The zero value is an empty set;
// it grows to fit the largest id added. Set is not safe for concurrent
// use.
type Set struct {
	words []uint64
	count int
}

// New returns an empty set pre-sized for ids 0..n-1.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64)}
}

// grow ensures the set can hold id without reallocation on the hot path.
func (s *Set) grow(id packet.NodeID) {
	s.growWords(int(id)/64 + 1)
}

// growWords ensures the word slice spans at least need words.
func (s *Set) growWords(need int) {
	if need <= len(s.words) {
		return
	}
	if need <= cap(s.words) {
		s.words = s.words[:need]
		return
	}
	w := make([]uint64, need)
	copy(w, s.words)
	s.words = w
}

// Add inserts id and reports whether it was newly added.
func (s *Set) Add(id packet.NodeID) bool {
	s.grow(id)
	w, b := int(id)/64, uint(id)%64
	if s.words[w]&(1<<b) != 0 {
		return false
	}
	s.words[w] |= 1 << b
	s.count++
	return true
}

// Remove deletes id and reports whether it was present.
func (s *Set) Remove(id packet.NodeID) bool {
	w, b := int(id)/64, uint(id)%64
	if w >= len(s.words) || s.words[w]&(1<<b) == 0 {
		return false
	}
	s.words[w] &^= 1 << b
	s.count--
	return true
}

// Contains reports whether id is in the set.
func (s *Set) Contains(id packet.NodeID) bool {
	w := int(id) / 64
	return w < len(s.words) && s.words[w]&(1<<(uint(id)%64)) != 0
}

// Count returns the number of ids in the set.
func (s *Set) Count() int { return s.count }

// Clear empties the set, retaining backing storage.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.count = 0
}

// CopyFrom makes s an exact copy of o, retaining s's storage when large
// enough.
func (s *Set) CopyFrom(o *Set) {
	if cap(s.words) < len(o.words) {
		s.words = make([]uint64, len(o.words))
	} else {
		s.words = s.words[:len(o.words)]
	}
	copy(s.words, o.words)
	s.count = o.count
}

// UnionIntersection ors the intersection a AND b into s, word-parallel:
// s |= a & b. The operands may alias s. The channel's collision engine
// uses it to garble every receiver covered by two overlapping
// transmissions in one pass over the backing words instead of a
// per-receiver loop.
func (s *Set) UnionIntersection(a, b *Set) {
	n := min(len(a.words), len(b.words))
	s.growWords(n)
	for i := 0; i < n; i++ {
		w := a.words[i] & b.words[i]
		if w == 0 {
			continue
		}
		old := s.words[i]
		merged := old | w
		if merged == old {
			continue
		}
		s.words[i] = merged
		s.count += bits.OnesCount64(merged) - bits.OnesCount64(old)
	}
}

// AppendAnd appends the ids present in both s and o to buf in ascending
// order and returns the extended slice. It is the iteration form of the
// word-parallel intersection, for callers that need per-id work (e.g.
// the capture-effect overlap rule).
func (s *Set) AppendAnd(o *Set, buf []packet.NodeID) []packet.NodeID {
	n := min(len(s.words), len(o.words))
	for w := 0; w < n; w++ {
		word := s.words[w] & o.words[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			buf = append(buf, packet.NodeID(w*64+b))
			word &^= 1 << uint(b)
		}
	}
	return buf
}

// AppendIDs appends the set's ids to buf in ascending order and returns
// the extended slice.
func (s *Set) AppendIDs(buf []packet.NodeID) []packet.NodeID {
	for w, word := range s.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			buf = append(buf, packet.NodeID(w*64+b))
			word &^= 1 << uint(b)
		}
	}
	return buf
}
