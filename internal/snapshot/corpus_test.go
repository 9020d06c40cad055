package snapshot_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/manet"
	"repro/internal/snapshot"
)

var update = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzSnapshotDecode from this tree")

const corpusDir = "testdata/fuzz/FuzzSnapshotDecode"

// corpusSeeds derives the checked-in fuzz corpus from the anchor
// checkpoint: the real document and its classic corruptions, and the
// header of a v1 document, which this codec refuses.
func corpusSeeds(real []byte) map[string][]byte {
	return map[string][]byte{
		"seed-checkpoint":  real,
		"seed-truncated":   real[:len(real)/2],
		"seed-trailing":    append(append([]byte(nil), real...), 0),
		"seed-bad-version": append([]byte(snapshot.Magic), 0x7f),
		"seed-v1":          append([]byte(snapshot.Magic), 1),
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

// TestSeedCheckpointBytes pins the v2 wire layout on a real document:
// the checkpoint a fresh corpus run writes today must equal, byte for
// byte, the committed seed-checkpoint (an AC run with the repair layer
// on, so it covers the repair sections too), and the derived seeds
// must match their files. With -update it rewrites all of them
// instead; only a PR that means to change the format or the simulated
// run commits a diff. The file was last rewritten when the codec moved
// to v2 and dropped the pool depths and pool counters: 11,880 → 11,616
// bytes, the same document otherwise.
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

// TestSeedCheckpointResumes reads the layout in the other direction:
// the committed seed-checkpoint must decode, restore under the corpus
// configuration and finish with the uninterrupted run's Summary, so
// every field the run depends on landed where the encoder put it.
func TestSeedCheckpointResumes(t *testing.T) {
	straight, err := manet.New(corpusConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := straight.Run()
	ck, err := snapshot.Decode(readSeed(t, "seed-checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := manet.RestoreCheckpoint(ck, corpusConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Run(); got != want {
		t.Errorf("resumed summary diverges:\nresumed:  %+v\nstraight: %+v", got, want)
	}
}
