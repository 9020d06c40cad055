package snapshot_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/manet"
	"repro/internal/snapshot"
)

var update = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzSnapshotDecode from this tree")

const corpusDir = "testdata/fuzz/FuzzSnapshotDecode"

// corpusSeeds derives the checked-in fuzz corpus from the anchor
// checkpoint: the real document and its classic corruptions.
func corpusSeeds(real []byte) map[string][]byte {
	return map[string][]byte{
		"seed-checkpoint":  real,
		"seed-truncated":   real[:len(real)/2],
		"seed-trailing":    append(append([]byte(nil), real...), 0),
		"seed-bad-version": append([]byte(snapshot.Magic), 0x7f),
	}
}

// readSeed returns the payload of one corpus file ("go test fuzz v1",
// then a single quoted []byte literal).
func readSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(corpusDir, name))
	if err != nil {
		t.Fatalf("read corpus (run with -update to create): %v", err)
	}
	header, lit, _ := strings.Cut(strings.TrimSuffix(string(raw), "\n"), "\n")
	quoted, ok := strings.CutPrefix(lit, "[]byte(")
	if header != "go test fuzz v1" || !ok || !strings.HasSuffix(quoted, ")") {
		t.Fatalf("%s is not a one-value []byte corpus file", name)
	}
	payload, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(payload)
}

// TestSeedCheckpointBytes pins the v1 wire layout on a real document:
// the checkpoint a fresh corpus run writes today must equal, byte for
// byte, the committed seed-checkpoint (an AC run with the repair layer
// on, so it covers the repair sections too), and the three derived
// seeds must match their files. With -update it rewrites all four
// instead; only a PR that means to change the format or the simulated
// run commits a diff. The file was rewritten when the sequential engine
// moved onto the slab builder: same 11,880 bytes, with
// sched.pool_hits/pool_misses and each mover's never-used
// previous-segment origin and has-previous byte changed, nothing else.
// seedBeforeSlabBuilder keeps the earlier bytes (written at PR 9 by the
// hand-written encoder) and -update leaves it alone. It was last
// rewritten when neighbor tables moved to one expiry event each:
// TestSeedCheckpointDiffIsPoolOnly holds that diff against
// seedPerEntryExpiry.
func TestSeedCheckpointBytes(t *testing.T) {
	for name, want := range corpusSeeds(realCheckpoint(t)) {
		if *update {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(want)) + ")\n"
			if err := os.WriteFile(filepath.Join(corpusDir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got := readSeed(t, name); !bytes.Equal(got, want) {
			at := 0
			for at < len(got) && at < len(want) && got[at] == want[at] {
				at++
			}
			t.Errorf("%s: committed %d bytes, this tree writes %d; first difference at offset %d",
				name, len(got), len(want), at)
		}
	}
}

// seedBeforeSlabBuilder is seed-checkpoint as the sequential engine's
// per-host construction loop wrote it (through PR 17).
const seedBeforeSlabBuilder = "seed-checkpoint-pr17"

// seedPerEntryExpiry is seed-checkpoint as a tree with one expiry event
// per neighbor entry wrote it (through PR 32); -update leaves it alone.
const seedPerEntryExpiry = "seed-checkpoint-pr32"

// TestSeedCheckpointDiffIsPoolOnly proves the last rewrite of
// seed-checkpoint moved nothing but the scheduler's pool accounting.
// Since neighbor tables keep one expiry event each instead of one per
// entry, the run schedules and recycles fewer event records: only
// sched.pool_hits, sched.pool_misses and sched.free_len may differ from
// seedPerEntryExpiry, and they must.
func TestSeedCheckpointDiffIsPoolOnly(t *testing.T) {
	old, err := snapshot.Decode(readSeed(t, seedPerEntryExpiry))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := snapshot.Decode(readSeed(t, "seed-checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(old.Sched, cur.Sched) {
		t.Fatal("the scheduler pool counters did not move; the frozen seed is not the per-entry one")
	}
	for _, ck := range []*snapshot.Checkpoint{old, cur} {
		ck.Sched.PoolHits, ck.Sched.PoolMisses, ck.Sched.FreeLen = 0, 0, 0
	}
	if !reflect.DeepEqual(old, cur) {
		t.Errorf("seed-checkpoint differs from %s beyond the three pool fields", seedPerEntryExpiry)
	}
}

// TestSeedCheckpointResumes reads the layout in the other direction:
// the committed seed-checkpoint must decode, restore under the corpus
// configuration and finish with the uninterrupted run's Summary, so
// every field the run depends on landed where the old encoder put it.
// The seed an earlier tree wrote must do the same: the fields
// construction fills differently now feed no Summary, and a checkpoint
// taken before that change still resumes.
func TestSeedCheckpointResumes(t *testing.T) {
	straight, err := manet.New(corpusConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := straight.Run()
	for _, name := range []string{"seed-checkpoint", seedBeforeSlabBuilder, seedPerEntryExpiry} {
		ck, err := snapshot.Decode(readSeed(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resumed, err := manet.RestoreCheckpoint(ck, corpusConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := resumed.Run(); got != want {
			t.Errorf("%s: resumed summary diverges:\nresumed:  %+v\nstraight: %+v", name, got, want)
		}
	}
}
