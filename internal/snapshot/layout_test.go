package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestLayoutPinnedSynthetic pins the v2 wire layout of a document that
// exercises every section and branch. One field list drives both
// directions of the codec, so a round trip cannot notice two fields
// trading places or changing width; only bytes an earlier encoder wrote
// can. The v1 literal was taken at c240e42 from the hand-written
// encoder this codec replaced; v2 dropped the pool depths and pool
// counters from that document and nothing else. A deliberate format
// change bumps CodecVersion and re-pins here.
func TestLayoutPinnedSynthetic(t *testing.T) {
	const wantLen = 2500
	const wantSum = "9b535870772418b6b6617e16e4061d8810de4db61442beed79fdcc0b2d4c2781"
	data := Append(nil, testCheckpoint())
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); len(data) != wantLen || got != wantSum {
		t.Fatalf("v2 layout changed: testCheckpoint encodes to %d bytes, sha256 %s; want %d bytes, %s",
			len(data), got, wantLen, wantSum)
	}
}
