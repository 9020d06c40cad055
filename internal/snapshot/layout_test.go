package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestLayoutPinnedSynthetic pins the v1 wire layout of a document that
// exercises every section and branch. One field list drives both
// directions of the codec, so a round trip cannot notice two fields
// trading places or changing width; only bytes an earlier encoder wrote
// can. The literal was taken at c240e42 from the hand-written encoder
// this codec replaced. A deliberate format change bumps CodecVersion
// and re-pins here.
func TestLayoutPinnedSynthetic(t *testing.T) {
	const wantLen = 2620
	const wantSum = "c721927778ee57dd1afd9a2a694242c0495e555c5032e61953e76e0acf507313"
	data := Encode(testCheckpoint())
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); len(data) != wantLen || got != wantSum {
		t.Fatalf("v1 layout changed: testCheckpoint encodes to %d bytes, sha256 %s; want %d bytes, %s",
			len(data), got, wantLen, wantSum)
	}
}
