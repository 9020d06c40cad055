package geom

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzSenders decodes up to eight senders, five bytes each: a kind byte
// and two 16-bit numbers a, b. An even kind places the sender at an
// offset of (a, b) from the centre, each scaled to ±4r; an odd kind
// places it exactly r from sample (a mod resolution, b mod resolution)
// of the grid UncoveredFraction lays over the centre, on the side bits
// 1–2 of the kind pick — the alignment where a run end estimated from
// the chord is most likely to be one row off.
func fuzzSenders(center Point, r float64, resolution int, raw []byte) []Point {
	var senders []Point
	for ; len(raw) >= 5 && len(senders) < 8; raw = raw[5:] {
		kind := raw[0]
		a, b := binary.LittleEndian.Uint16(raw[1:]), binary.LittleEndian.Uint16(raw[3:])
		if kind&1 == 0 {
			senders = append(senders, Point{
				center.X + (float64(a)-32768)/8192*r,
				center.Y + (float64(b)-32768)/8192*r,
			})
			continue
		}
		res := max(resolution, 2)
		senders = append(senders, latticeSenders(center, r, res, int(a)%res, int(b)%res)[kind>>1&3])
	}
	return senders
}

// FuzzUncoveredFraction holds the column-interval kernel to the sampled
// definition on whatever geometry the fuzzer finds: the two must agree
// with == on the float, and the result must be a fraction. Inputs that
// are not finite, or so large that r*r or centre ± r overflows, are
// outside UncoveredFraction's domain and skipped. The seeds are the
// files under testdata/fuzz/FuzzUncoveredFraction: the lattice-aligned
// and degenerate cases of TestUncoveredFractionMatchesSampled.
func FuzzUncoveredFraction(f *testing.F) {
	f.Fuzz(func(t *testing.T, cx, cy, r float64, resolution byte, raw []byte) {
		for _, v := range []float64{cx, cy, r} {
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				t.Skip("outside the domain")
			}
		}
		center := Point{cx, cy}
		senders := fuzzSenders(center, r, int(resolution), raw)
		got := UncoveredFraction(center, senders, r, int(resolution))
		want := sampledUncoveredFraction(center, senders, r, int(resolution))
		if got != want {
			t.Fatalf("center=%v r=%v resolution=%d senders=%v: kernel %v, sampled %v",
				center, r, resolution, senders, got, want)
		}
		if !(got >= 0 && got <= 1) {
			t.Fatalf("center=%v r=%v resolution=%d senders=%v: %v is not a fraction",
				center, r, resolution, senders, got)
		}
	})
}
