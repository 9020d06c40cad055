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

// FuzzCoverage holds the incremental kernel to the one-shot one and to
// the sampled definition: senders are added one at a time, to a
// Coverage first used on other geometry, and after every Add its
// Fraction must equal UncoveredFraction and sampledUncoveredFraction
// over the senders added so far, with == on the float. Resolutions run
// from 2 to 64, the range one Coverage tile holds. The seeds put a
// sender on the centre, exactly 2r away (tangent disks), a hair off the
// centre (nearly nested disks) and exactly r away.
func FuzzCoverage(f *testing.F) {
	offset := func(a, b uint16) []byte { // an even-kind sender at (a, b)
		raw := []byte{0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint16(raw[1:], a)
		binary.LittleEndian.PutUint16(raw[3:], b)
		return raw
	}
	const centre, r, twoR, hair = 32768, 32768 + 8192, 32768 + 16384, 32769
	f.Add(2500.0, 2500.0, 500.0, byte(46), offset(centre, centre))
	f.Add(2500.0, 2500.0, 500.0, byte(46), append(offset(twoR, centre), offset(centre, 2*centre-twoR)...))
	f.Add(2500.0, 2500.0, 500.0, byte(62), append(offset(hair, centre), offset(centre, hair)...))
	f.Add(250.0, 4750.0, 500.0, byte(46), append(offset(r, centre), offset(centre, r)...))
	f.Add(1e7, -1e7, 500.0, byte(0), append(append(offset(r, r), offset(hair, twoR)...), offset(centre, centre)...))
	f.Add(3.0, 17.0, 1.0, byte(1), []byte{1, 7, 0, 9, 0, 3, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, cx, cy, r float64, resolution byte, raw []byte) {
		for _, v := range []float64{cx, cy, r} {
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				t.Skip("outside the domain")
			}
		}
		res := 2 + int(resolution)%63
		center := Point{cx, cy}
		senders := fuzzSenders(center, r, res, raw)
		var c Coverage
		// A used Coverage: Reset must leave nothing of this behind.
		c.Reset(Point{cy, cx}, 2*r+1, 64-res+2)
		c.Add(center, Point{cx + r, cy})
		c.Reset(center, r, res)
		for k := 0; k <= len(senders); k++ {
			if k > 0 {
				c.Add(senders[k-1])
			}
			got := c.Fraction()
			if want := UncoveredFraction(center, senders[:k], r, res); got != want {
				t.Fatalf("center=%v r=%v res=%d senders=%v: incremental %v, one-shot %v", center, r, res, senders[:k], got, want)
			}
			if want := sampledUncoveredFraction(center, senders[:k], r, res); got != want {
				t.Fatalf("center=%v r=%v res=%d senders=%v: incremental %v, sampled %v", center, r, res, senders[:k], got, want)
			}
		}
	})
}
