package manet

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/packet"
)

// dedup is the paper's duplicate test — every host "can detect
// duplicate broadcast packets" by (source ID, sequence number) — kept
// for the whole population in one flat bitset. The network numbers its
// broadcasts with one dense counter starting at 1, so a sequence number
// alone names a broadcast: host h has seen broadcast s iff bit s of row
// h is set. A row is stride words; bit 0 is never set.
//
// The slab is sized once at construction for the configured requests
// and re-strided only when an origination passes the last bit a row
// holds (route discovery's RREQs are not counted in Config.Requests).
// After that, a reception's test is one shift and mask: no hashing and
// no allocation. Each host touches only its own row, so speculative
// lanes, which own disjoint hosts, never write the same word.
//
// Checkpoints still list each host's ids in canonical
// packet.CompareBroadcastID order. src records each broadcast's source
// (4 B per broadcast); once per checkpoint canonical orders every seq by
// (source, seq), and a host's list is that order filtered by its row.
// The filter re-indexes the row by canonical place, so it costs the
// row's words and the ids the host holds, not every issued broadcast.
type dedup struct {
	bits   []uint64        // hosts × stride words
	stride int             // words per host row
	hosts  int             // rows
	src    []packet.NodeID // src[s] originated broadcast s; src[0] is unused

	// Checkpoint scratch, kept across checkpoints: every seq in
	// canonical order, each seq's place in it, the counting sort's
	// per-source offsets, and one row's bits indexed by place.
	order  []uint32
	place  []uint32
	start  []int32
	placed []uint64
}

// strideFor returns the words a row needs to hold bits 0..seq.
func strideFor(seq uint64) int { return int(seq/64) + 1 }

// reset empties the table for hosts rows sized to hold requests
// broadcasts, taking the slab's storage from reuse when it is large
// enough (an Arena's parked slab) and clearing it.
func (d *dedup) reset(hosts, requests int, reuse []uint64) {
	d.hosts = hosts
	d.stride = strideFor(uint64(requests))
	if need := hosts * d.stride; cap(reuse) >= need {
		d.bits = reuse[:need]
		clear(d.bits)
	} else {
		d.bits = make([]uint64, need)
	}
	d.src = make([]packet.NodeID, 1, requests+1)
}

// originate records that src issued broadcast seq, the next in the
// network's count, and makes every row able to hold it.
func (d *dedup) originate(src packet.NodeID, seq uint32) {
	if int(seq) != len(d.src) {
		panic(fmt.Sprintf("manet: broadcast %d originated out of order (next is %d)", seq, len(d.src)))
	}
	d.src = append(d.src, src)
	if int(seq/64) >= d.stride {
		d.restride(max(2*d.stride, strideFor(uint64(seq))))
	}
}

// restride widens every row to stride words, keeping its bits.
func (d *dedup) restride(stride int) {
	bits := make([]uint64, d.hosts*stride)
	for h := 0; h < d.hosts; h++ {
		copy(bits[h*stride:], d.bits[h*d.stride:(h+1)*d.stride])
	}
	d.bits, d.stride = bits, stride
}

// observe records that host h holds broadcast seq and reports whether
// this was its first reception. seq must have been originated.
func (d *dedup) observe(h packet.NodeID, seq uint32) bool {
	w := &d.bits[int(h)*d.stride+int(seq/64)]
	bit := uint64(1) << (seq % 64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// seen reports whether host h holds broadcast seq, recording nothing.
func (d *dedup) seen(h packet.NodeID, seq uint32) bool {
	return d.bits[int(h)*d.stride+int(seq/64)]&(1<<(seq%64)) != 0
}

// canonical orders every originated seq by (source, seq) into d.order:
// a counting sort over sources, which keeps each source's seqs
// ascending. Call it once per checkpoint, before appendHost.
func (d *dedup) canonical() {
	start := slices.Grow(d.start[:0], d.hosts+1)[:d.hosts+1]
	clear(start)
	for _, src := range d.src[1:] {
		start[src+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	order := slices.Grow(d.order[:0], len(d.src)-1)[:len(d.src)-1]
	place := slices.Grow(d.place[:0], len(d.src))[:len(d.src)]
	for s := 1; s < len(d.src); s++ {
		at := &start[d.src[s]]
		order[*at], place[s] = uint32(s), uint32(*at)
		*at++
	}
	words := (len(order) + 63) / 64
	d.start, d.order, d.place = start, order, place
	d.placed = slices.Grow(d.placed[:0], words)[:words]
}

// appendHost appends host h's ids to ids in canonical order; canonical
// must have run since the last origination. It walks the row's set
// bits, sets each seq's canonical place in d.placed, then walks those.
func (d *dedup) appendHost(ids []packet.BroadcastID, h packet.NodeID) []packet.BroadcastID {
	placed := d.placed
	clear(placed)
	for w, word := range d.bits[int(h)*d.stride:][:d.stride] {
		for ; word != 0; word &= word - 1 {
			p := d.place[w*64+bits.TrailingZeros64(word)]
			placed[p/64] |= 1 << (p % 64)
		}
	}
	for w, word := range placed {
		for ; word != 0; word &= word - 1 {
			s := d.order[w*64+bits.TrailingZeros64(word)]
			ids = append(ids, packet.BroadcastID{Source: d.src[s], Seq: s})
		}
	}
	return ids
}

// restore replaces the table's contents with a checkpoint's: seq
// broadcasts issued, and host h holding exactly the ids list(h). The
// lists are not trusted. Every id must name a host as source and a seq
// in 1..seq, no seq may appear under two sources or twice in one list,
// and every seq must appear somewhere — its source always holds it.
// Nothing is sized from seq until the lists are long enough to vouch
// for it, so a hostile count cannot make restore allocate.
func (d *dedup) restore(seq uint32, list func(h int) []packet.BroadcastID) error {
	total := 0
	for h := 0; h < d.hosts; h++ {
		for _, id := range list(h) {
			switch {
			case id.Seq == 0:
				return fmt.Errorf("manet: host %d lists broadcast %v: sequence numbers start at 1", h, id)
			case id.Seq > seq:
				return fmt.Errorf("manet: host %d lists broadcast %v, past the %d issued", h, id, seq)
			case id.Source < 0 || int(id.Source) >= d.hosts:
				return fmt.Errorf("manet: host %d lists broadcast %v from no host", h, id)
			}
		}
		total += len(list(h))
	}
	if int64(seq) > int64(total) {
		return fmt.Errorf("manet: %d broadcasts issued but only %d ids listed: some broadcast has no source", seq, total)
	}

	// The lists now vouch for seq. last[s] is 1 + the last host that
	// listed s, so a repeat within one list is caught in the same pass.
	src := make([]packet.NodeID, seq+1, max(int(seq)+1, cap(d.src)))
	last := make([]int32, seq+1)
	for h := 0; h < d.hosts; h++ {
		for _, id := range list(h) {
			switch s := id.Seq; {
			case last[s] == int32(h)+1:
				return fmt.Errorf("manet: host %d lists broadcast %v twice", h, id)
			case last[s] != 0 && src[s] != id.Source:
				return fmt.Errorf("manet: broadcast %d listed under sources %d and %d", s, src[s], id.Source)
			default:
				src[s], last[s] = id.Source, int32(h)+1
			}
		}
	}
	for s := uint32(1); s <= seq; s++ {
		if last[s] == 0 {
			return fmt.Errorf("manet: broadcast %d of %d has no source: no host lists it", s, seq)
		}
	}

	d.src = src
	if stride := strideFor(uint64(seq)); stride > d.stride {
		d.bits, d.stride = make([]uint64, d.hosts*stride), stride
	} else {
		clear(d.bits)
	}
	for h := 0; h < d.hosts; h++ {
		for _, id := range list(h) {
			d.observe(packet.NodeID(h), id.Seq)
		}
	}
	return nil
}

// check returns an error unless id names an issued broadcast: seq in
// 1..len(src)-1, originated by id.Source. observe and seen index rows
// by seq alone, so after restore every other id a document carries is
// held to this.
func (d *dedup) check(id packet.BroadcastID) error {
	if id.Seq == 0 || int(id.Seq) >= len(d.src) || d.src[id.Seq] != id.Source {
		return fmt.Errorf("manet: document names broadcast %v, which was never issued", id)
	}
	return nil
}
