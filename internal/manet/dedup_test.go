package manet

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// snapshotLists returns every host's ids as a checkpoint lists them.
func (d *dedup) snapshotLists() [][]packet.BroadcastID {
	d.canonical()
	lists := make([][]packet.BroadcastID, d.hosts)
	for h := range lists {
		lists[h] = d.appendHost(nil, packet.NodeID(h))
	}
	return lists
}

func TestDedupFirstThenDuplicate(t *testing.T) {
	var d dedup
	d.reset(4, 10, nil)
	d.originate(3, 1)
	if d.seen(1, 1) {
		t.Fatal("unseen id reported seen")
	}
	if !d.observe(1, 1) {
		t.Fatal("first observation reported as duplicate")
	}
	if d.observe(1, 1) {
		t.Fatal("second observation reported as first")
	}
	if !d.seen(1, 1) {
		t.Fatal("seen = false after observe")
	}
	if d.seen(0, 1) || d.seen(2, 1) {
		t.Fatal("one host's observation shows in another's row")
	}
	want := []packet.BroadcastID{{Source: 3, Seq: 1}}
	if got := d.snapshotLists()[1]; !slices.Equal(got, want) {
		t.Fatalf("host 1 holds %v, want %v", got, want)
	}
}

// TestDedupCanonicalOrder: a host's ids come out ordered by source and
// then sequence number, whatever order they were issued and observed in.
func TestDedupCanonicalOrder(t *testing.T) {
	var d dedup
	d.reset(3, 4, nil)
	for seq, src := range []packet.NodeID{2, 1, 2, 1} {
		d.originate(src, uint32(seq+1))
	}
	for _, s := range []uint32{4, 1, 3, 2} {
		d.observe(0, s)
	}
	want := []packet.BroadcastID{{Source: 1, Seq: 2}, {Source: 1, Seq: 4}, {Source: 2, Seq: 1}, {Source: 2, Seq: 3}}
	if got := d.snapshotLists()[0]; !slices.Equal(got, want) {
		t.Fatalf("host 0 holds %v, want %v in canonical order", got, want)
	}
}

// TestDedupSlabSize holds the dedup storage to exactly one row of
// ceil((Requests+1)/64) words per host, from New through a re-stride,
// and a warm arena to handing its parked slab to the next world
// cleared.
func TestDedupSlabSize(t *testing.T) {
	for _, requests := range []int{1, 62, 63, 64, 100, 127, 128, 1000} {
		n, err := New(Config{Scheme: scheme.Flooding{}, Hosts: 7, MapUnits: 2, Requests: requests, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		d := &n.dedup
		if want := (requests + 1 + 63) / 64; d.stride != want {
			t.Errorf("Requests %d: stride %d words, want %d", requests, d.stride, want)
		}
		if len(d.bits) != 7*d.stride {
			t.Errorf("Requests %d: slab holds %d words, want 7 hosts × %d", requests, len(d.bits), d.stride)
		}
	}

	n, err := New(Config{Scheme: scheme.Flooding{}, Hosts: 7, MapUnits: 2, Requests: 63, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		n.Originate(packet.NodeID(i%7), nil)
	}
	if d := &n.dedup; d.stride != 2 || len(d.bits) != 7*2 {
		t.Fatalf("after broadcast 64: stride %d, slab %d words; want 2 and 14", d.stride, len(d.bits))
	}
	for i := 0; i < 64; i++ {
		if src := packet.NodeID(i % 7); !n.dedup.seen(src, uint32(i+1)) {
			t.Fatalf("re-stride lost host %d's own broadcast %d", src, i+1)
		}
	}

	arena := NewArena()
	cfg := Config{Scheme: scheme.Flooding{}, Hosts: 7, MapUnits: 2, Requests: 200, Arena: arena, Seed: 1}
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.Originate(2, nil)
	parked := &arena.dedup[0]
	cfg.Requests = 100
	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if &second.dedup.bits[0] != parked {
		t.Error("a smaller world did not reuse the arena's dedup slab")
	}
	if len(second.dedup.bits) != 7*2 || second.dedup.seen(2, 1) {
		t.Errorf("reused slab: %d words, host 2 sees broadcast 1: %v; want 14 words, cleared",
			len(second.dedup.bits), second.dedup.seen(2, 1))
	}
}

// restoreValid is restore's contract stated on maps: every id names a
// host and a seq in 1..seq, no list repeats an id, no seq has two
// sources, and every seq is listed somewhere.
func restoreValid(seq uint32, hosts int, lists [][]packet.BroadcastID) bool {
	srcs := map[uint32]packet.NodeID{}
	for _, l := range lists {
		ids := map[packet.BroadcastID]bool{}
		for _, id := range l {
			if id.Seq == 0 || id.Seq > seq || id.Source < 0 || int(id.Source) >= hosts || ids[id] {
				return false
			}
			if s, ok := srcs[id.Seq]; ok && s != id.Source {
				return false
			}
			ids[id], srcs[id.Seq] = true, id.Source
		}
	}
	return len(srcs) == int(seq)
}

// FuzzDedup drives the bitset through an arbitrary interleaving of
// originations, receptions, checkpoints and restores, and checks every
// answer against one set of ids per host. Two header bytes pick the
// configured requests (0–139, so rows start one to three words wide)
// and the population (2–4 hosts); then every three bytes are an
// operation: a selector and two arguments.
//
//   - Originate a burst of up to 32 broadcasts from one host, which
//     observes each one as Network.Originate's source does. Bursts cross
//     the 64-seq word boundaries quickly, so re-strides are common.
//   - Observe a seq at a host, near the oldest or the newest: seen and
//     observe must agree with the host's set.
//   - Checkpoint: every host's list must be its set in canonical
//     CompareBroadcastID order, behind a caller's prefix left intact.
//   - Restore the checkpoint into a fresh table sized for fewer
//     requests (so restore must widen it), after one of five forgeries
//     or none: a seq of 0, a seq past the issued count, a second source,
//     a repeated id, or an issued count with unlisted seqs. Restore must
//     fail exactly when restoreValid says so; on success the run goes on
//     with the restored table and the forged lists as its sets.
//
// After every operation the slab is hosts × stride words and the
// stride covers every issued seq.
func FuzzDedup(f *testing.F) {
	f.Add([]byte{63, 0})
	f.Add([]byte{0, 1, 0, 63, 1, 2, 0, 0, 3, 1, 5, 5, 0, 0, 6, 1, 40})
	f.Add([]byte{70, 2, 1, 31, 0, 0, 31, 1, 2, 2, 3, 10, 1, 5, 0, 0, 6, 4, 3, 7, 2, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		requests, hosts := int(data[0])%140, 2+int(data[1])%3
		var d dedup
		d.reset(hosts, requests, nil)
		var seq uint32
		model := make([]map[uint32]bool, hosts)
		for h := range model {
			model[h] = map[uint32]bool{}
		}
		srcOf := []packet.NodeID{-1}
		want := func(h int) []packet.BroadcastID {
			var ids []packet.BroadcastID
			for s := range model[h] {
				ids = append(ids, packet.BroadcastID{Source: srcOf[s], Seq: s})
			}
			slices.SortFunc(ids, packet.CompareBroadcastID)
			return ids
		}

		ops := data[2:]
		for i := 0; i+3 <= len(ops); i += 3 {
			sel, a, b := ops[i], ops[i+1], ops[i+2]
			switch sel % 8 {
			case 0, 1: // originate a burst
				src := packet.NodeID(int(b) % hosts)
				for k := 0; k <= int(a%32) && seq < 400; k++ {
					seq++
					d.originate(src, seq)
					srcOf = append(srcOf, src)
					if !d.observe(src, seq) {
						t.Fatalf("op %d: source %d's first observe of %d reported a duplicate", i/3, src, seq)
					}
					model[src][seq] = true
				}
			case 2, 3, 4: // observe
				if seq == 0 {
					continue
				}
				h, s := packet.NodeID(int(a)%hosts), 1+uint32(b)%seq
				if sel&8 != 0 {
					s = seq - uint32(b)%seq
				}
				if d.seen(h, s) != model[h][s] {
					t.Fatalf("op %d: seen(%d, %d) = %v, want %v", i/3, h, s, !model[h][s], model[h][s])
				}
				if d.observe(h, s) == model[h][s] {
					t.Fatalf("op %d: observe(%d, %d) = %v, want %v", i/3, h, s, model[h][s], !model[h][s])
				}
				model[h][s] = true
			case 5: // checkpoint
				d.canonical()
				prefix := make([]packet.BroadcastID, a%3)
				for j := range prefix {
					prefix[j] = packet.BroadcastID{Source: 99, Seq: uint32(j)}
				}
				for h := 0; h < hosts; h++ {
					got := d.appendHost(slices.Clone(prefix), packet.NodeID(h))
					if !slices.Equal(got[:len(prefix)], prefix) {
						t.Fatalf("op %d: appendHost overwrote the buffer's prefix", i/3)
					}
					if w := want(h); !slices.Equal(got[len(prefix):], w) {
						t.Fatalf("op %d: host %d lists %v, want %v", i/3, h, got[len(prefix):], w)
					}
				}
			default: // restore, maybe forged
				lists := d.snapshotLists()
				claimed := seq
				var hit *[]packet.BroadcastID // first non-empty list from host b
				for k := 0; k < hosts && hit == nil; k++ {
					if l := &lists[(int(b)+k)%hosts]; len(*l) > 0 {
						hit = l
					}
				}
				if hit != nil {
					id := &(*hit)[int(b)%len(*hit)]
					switch a % 8 {
					case 3:
						id.Seq = 0
					case 4:
						id.Seq = claimed + 1
					case 5:
						id.Source = packet.NodeID((int(id.Source) + 1) % hosts)
					case 6:
						*hit = append(*hit, *id)
					}
				}
				if a%8 == 7 {
					claimed++
					if b&1 != 0 {
						claimed = 1<<32 - 1
					}
				}
				var next dedup
				next.reset(hosts, int(b%70), nil)
				err := next.restore(claimed, func(h int) []packet.BroadcastID { return lists[h] })
				if ok := restoreValid(claimed, hosts, lists); (err == nil) != ok {
					t.Fatalf("op %d: restore returned %v for lists %v claiming %d, want success %v", i/3, err, lists, claimed, ok)
				}
				if err != nil {
					continue
				}
				d, seq = next, claimed
				srcOf = make([]packet.NodeID, seq+1)
				for h, l := range lists {
					model[h] = map[uint32]bool{}
					for _, id := range l {
						model[h][id.Seq], srcOf[id.Seq] = true, id.Source
					}
				}
			}
			if len(d.bits) != hosts*d.stride || d.stride < strideFor(uint64(seq)) {
				t.Fatalf("op %d: slab %d words at stride %d for %d hosts and %d broadcasts", i/3, len(d.bits), d.stride, hosts, seq)
			}
		}
	})
}

// TestRestoreRejectsForgedDedup forges a checkpoint's dedup lists in
// each way restore must refuse, and the issued count past every listed
// id — once by one, once to 2³²−1, which would cost gigabytes if
// restore sized anything from it before checking. The repair document
// forges the other ids the run tests against the rows: a repair
// frame's payload and a host's advertised Recent, each past the issued
// count — far enough, for Recent, to index another host's row or past
// the slab — and under the wrong source.
func TestRestoreRejectsForgedDedup(t *testing.T) {
	type forgery struct {
		name  string
		forge func(*snapshot.Checkpoint)
		want  string
	}
	refuses := func(t *testing.T, cfg Config, doc []byte, cases []forgery) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				ck, err := snapshot.Decode(doc)
				if err != nil {
					t.Fatal(err)
				}
				tc.forge(ck)
				if ck, err = snapshot.Decode(snapshot.Append(nil, ck)); err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err = RestoreCheckpoint(ck, cfg)
				runtime.ReadMemStats(&after)
				if tc.want == "" {
					if err != nil {
						t.Fatalf("restore refused an honest document: %v", err)
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("restore returned %v, want an error containing %q", err, tc.want)
				}
				// New builds the 30-host world first: well under a megabyte.
				if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
					t.Errorf("refusing the document allocated %d MB", alloc>>20)
				}
			})
		}
	}

	cfg := resumeBase(scheme.Counter{C: 3}, 2)
	bufs, _ := captureCheckpoints(t, cfg)
	// foreign finds an id some host holds from another source.
	foreign := func(ck *snapshot.Checkpoint) *packet.BroadcastID {
		for h := range ck.Hosts {
			for i, id := range ck.Hosts[h].Dedup {
				if int(id.Source) != h {
					return &ck.Hosts[h].Dedup[i]
				}
			}
		}
		panic("no host holds another's broadcast")
	}
	refuses(t, cfg, bufs[1], []forgery{
		{"unforged", func(*snapshot.Checkpoint) {}, ""},
		{"seq 0", func(ck *snapshot.Checkpoint) { foreign(ck).Seq = 0 }, "sequence numbers start at 1"},
		{"seq past Net.Seq", func(ck *snapshot.Checkpoint) { foreign(ck).Seq = ck.Net.Seq + 1 }, "past the"},
		{"two sources", func(ck *snapshot.Checkpoint) {
			id := foreign(ck)
			id.Source = packet.NodeID((int(id.Source) + 1) % len(ck.Hosts))
		}, "under sources"},
		{"repeated id", func(ck *snapshot.Checkpoint) {
			h := &ck.Hosts[foreign(ck).Source]
			h.Dedup = append(h.Dedup, h.Dedup[0])
		}, "twice"},
		{"unlisted seq", func(ck *snapshot.Checkpoint) { ck.Net.Seq++ }, "has no source"},
		{"unlisted seq at 2^32-1", func(ck *snapshot.Checkpoint) { ck.Net.Seq = 1<<32 - 1 }, "has no source"},
		{"source past the hosts", func(ck *snapshot.Checkpoint) { foreign(ck).Source = packet.NodeID(len(ck.Hosts)) }, "from no host"},
	})

	repair := Config{
		Scheme: scheme.AdaptiveCounter{}, MapUnits: 3, Hosts: 30, Requests: 8,
		Repair: true, LossRate: 0.15, CaptureRatio: 2, Seed: 11,
		Warmup: 2 * sim.Second,
	}
	bufs, _ = captureCheckpoints(t, repair)
	// issued is an id the document's dedup lists vouch for.
	issued := func(ck *snapshot.Checkpoint) packet.BroadcastID { return ck.Hosts[foreign(ck).Source].Dedup[0] }
	// request adds an in-flight repair request for id to the frame table.
	request := func(id func(*snapshot.Checkpoint) packet.BroadcastID) func(*snapshot.Checkpoint) {
		return func(ck *snapshot.Checkpoint) {
			ck.Frames = append(ck.Frames, snapshot.Frame{
				Kind: uint8(packet.KindData), Sender: 1, Dest: 2, Bytes: repairRequestBytes,
				PayloadKind: snapshot.PayloadRepairRequest, PayloadID: id(ck),
			})
		}
	}
	// recent rewrites the first advertised id some host holds.
	recent := func(forge func(*packet.BroadcastID)) func(*snapshot.Checkpoint) {
		return func(ck *snapshot.Checkpoint) {
			for h := range ck.Hosts {
				if len(ck.Hosts[h].Recent) > 0 {
					forge(&ck.Hosts[h].Recent[0].ID)
					return
				}
			}
			panic("no host advertises a recent broadcast")
		}
	}
	wrongSource := func(id packet.BroadcastID) packet.BroadcastID {
		id.Source = packet.NodeID((int(id.Source) + 1) % repair.Hosts)
		return id
	}
	refuses(t, repair, bufs[1], []forgery{
		{"repair request for an issued id", request(issued), ""},
		{"repair request past Net.Seq", request(func(ck *snapshot.Checkpoint) packet.BroadcastID {
			return packet.BroadcastID{Source: 0, Seq: ck.Net.Seq + 1}
		}), "never issued"},
		{"repair request under the wrong source", request(func(ck *snapshot.Checkpoint) packet.BroadcastID {
			return wrongSource(issued(ck))
		}), "never issued"},
		{"recent past the row", recent(func(id *packet.BroadcastID) { id.Seq = 1 << 20 }), "never issued"},
		{"recent under the wrong source", recent(func(id *packet.BroadcastID) { *id = wrongSource(*id) }), "never issued"},
	})
}
