// Package geom provides the planar geometry used throughout the
// broadcast-storm simulator: points and distances, the two-circle
// intersection area INTC(d) from the paper's redundancy analysis, the
// additional coverage offered by a rebroadcast, and union-coverage
// estimation for multiple prior senders.
//
// All radio coverage in the model is a unit disk of radius r around the
// transmitter, matching the paper's assumptions.
package geom

import (
	"math"
	"math/bits"
)

// Point is a position on the simulation map, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It is
// the preferred comparison form in hot paths because it avoids the
// square root.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// INTC returns the intersection area of two circles of equal radius r
// whose centers are distance d apart:
//
//	INTC(d) = 4 * Integral_{d/2}^{r} sqrt(r^2 - x^2) dx
//	        = 2 r^2 acos(d/(2r)) - (d/2) sqrt(4 r^2 - d^2)
//
// For d >= 2r the circles are disjoint and the area is 0; for d <= 0 it
// is the full circle area pi*r^2.
func INTC(d, r float64) float64 {
	if d <= 0 {
		return math.Pi * r * r
	}
	if d >= 2*r {
		return 0
	}
	return 2*r*r*math.Acos(d/(2*r)) - (d/2)*math.Sqrt(4*r*r-d*d)
}

// AdditionalCoverage returns the extra area pi*r^2 - INTC(d) covered by a
// rebroadcast from a host at distance d from the (single) host it heard
// the packet from. The paper shows this peaks at about 0.61*pi*r^2 when
// d = r.
func AdditionalCoverage(d, r float64) float64 {
	return math.Pi*r*r - INTC(d, r)
}

// AdditionalCoverageFraction is AdditionalCoverage normalized by the full
// disk area pi*r^2, giving a value in [0, 1].
func AdditionalCoverageFraction(d, r float64) float64 {
	return AdditionalCoverage(d, r) / (math.Pi * r * r)
}

// ExpectedAdditionalCoverageFraction returns the analytic average of the
// additional-coverage fraction over a rebroadcaster placed uniformly at
// random inside the transmitter's disk:
//
//	(1/(pi r^2)) * Integral_0^r 2 pi x [pi r^2 - INTC(x)]/(pi r^2) dx
//
// The paper evaluates this to approximately 0.41. The integral is
// computed by Simpson's rule; the integrand is smooth so a modest panel
// count gives full double precision for our purposes.
func ExpectedAdditionalCoverageFraction(r float64) float64 {
	f := func(x float64) float64 {
		return 2 * math.Pi * x * AdditionalCoverage(x, r) / (math.Pi * r * r)
	}
	return simpson(f, 0, r, 2048) / (math.Pi * r * r)
}

// ExpectedContentionProbability returns the analytic probability,
// derived in the paper's contention analysis, that a second random
// receiver C lies in the intersection area S_{A and B} and thus contends
// with receiver B:
//
//	Integral_0^r [2 pi x INTC(x)/(pi r^2)] / (pi r^2) dx  ~=  0.59
func ExpectedContentionProbability(r float64) float64 {
	f := func(x float64) float64 {
		return 2 * math.Pi * x * INTC(x, r) / (math.Pi * r * r)
	}
	return simpson(f, 0, r, 2048) / (math.Pi * r * r)
}

// simpson integrates f over [a, b] with n panels (n made even).
func simpson(f func(float64) float64, a, b float64, n int) float64 {
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 0 {
			sum += 2 * f(x)
		} else {
			sum += 4 * f(x)
		}
	}
	return sum * h / 3
}

// UncoveredFraction estimates the fraction of the disk of radius r around
// center that is NOT covered by any of the disks of radius r around the
// given prior senders. This is the "additional coverage" a rebroadcast by
// the host at center would provide after hearing the packet from every
// host in senders, normalized by pi*r^2.
//
// The estimate uses a deterministic grid with the given resolution
// (points per axis across the disk's bounding square): sample (i, j) sits
// at center - r + (i+0.5, j+0.5)*2r/resolution, counts when it lies
// within r of center, and is covered when it lies within r of a sender.
// Grid sampling — rather than Monte Carlo — keeps scheme decisions
// reproducible run to run. Against the closed form for one sender
// (AdditionalCoverageFraction) at r = 500, resolution 48 reads a mean
// absolute error of 1.2e-3, a worst one of 4.5e-3 and a mean signed
// error of -0.6e-3 (64: 0.8e-3, 4.6e-3, +0.7e-3) — small against the
// thresholds the schemes compare with, and a measurement, not a bound
// (TestUncoveredFractionAgainstClosedForm pins it).
//
// The samples are not visited one by one. Down a sample column the
// ordinates only grow, so the samples a disk holds form one run of rows;
// rowMask finds each run's ends, and a column's counts are popcounts of
// own &^ (s1 | s2 | ...). Every end is settled by the same float
// comparison the sample-by-sample definition makes (Point.Dist2 against
// r*r), so the integer counts — and the returned float — are the
// definition's for all finite inputs whose r*r and 2r are finite.
// Resolutions above 64 run the same code over 64-row chunks.
func UncoveredFraction(center Point, senders []Point, r float64, resolution int) float64 {
	if resolution < 2 {
		resolution = 2
	}
	r2 := r * r
	step := 2 * r / float64(resolution)
	inv := 1 / step
	var ys [64]float64
	inside, uncovered := 0, 0
	for j0 := 0; j0 < resolution; j0 += len(ys) {
		rows := ys[:min(len(ys), resolution-j0)]
		for j := range rows {
			rows[j] = center.Y - r + (float64(j0+j)+0.5)*step
		}
		for i := 0; i < resolution; i++ {
			x := center.X - r + (float64(i)+0.5)*step
			free := rowMask(x, rows, center, r2, inv)
			inside += bits.OnesCount64(free)
			for _, s := range senders {
				if free == 0 {
					break
				}
				free &^= rowMask(x, rows, s, r2, inv)
			}
			uncovered += bits.OnesCount64(free)
		}
	}
	if inside == 0 {
		return 0
	}
	return float64(uncovered) / float64(inside)
}

// rowMask returns bit j set for every row of the sample column at
// abscissa x whose point (x, ys[j]) lies within sqrt(r2) of c. ys holds
// at most 64 ordinates, monotone in j and about 1/inv apart.
//
// The chord of the disk on the column gives a guess at the run's first
// and last row. A guess never decides membership: it stands only if the
// predicate holds at both ends and fails just outside them, which — the
// squared distance falling and then rising along a monotone column —
// makes it the exact run. Any other guess, and every guess NaN or
// infinity reached, is replaced by testing each row.
func rowMask(x float64, ys []float64, c Point, r2, inv float64) uint64 {
	dx := x - c.X
	rem := r2 - dx*dx
	if rem < 0 {
		// dx*dx alone exceeds r2, and adding a row's dy*dy cannot round
		// back below it.
		return 0
	}
	last := len(ys) - 1
	h := math.Sqrt(rem)
	// Row j sits about j/inv above ys[0]: the first row at or above the
	// chord's lower end and the last at or below its upper end. (An end
	// exactly on a row guesses one row short and is settled below.)
	lo := floorRow((c.Y-h-ys[0])*inv, last) + 1
	hi := floorRow((c.Y+h-ys[0])*inv, last)
	if lo <= hi && within(x, ys[lo], c, r2) && within(x, ys[hi], c, r2) &&
		(lo == 0 || !within(x, ys[lo-1], c, r2)) &&
		(hi == last || !within(x, ys[hi+1], c, r2)) {
		return ^uint64(0) >> uint(63-(hi-lo)) << uint(lo)
	}
	var mask uint64
	for j, y := range ys {
		if within(x, y, c, r2) {
			mask |= 1 << j
		}
	}
	return mask
}

// within is the coverage predicate of UncoveredFraction's definition.
func within(x, y float64, c Point, r2 float64) bool {
	return Point{x, y}.Dist2(c) <= r2
}

// floorRow is floor(v) held to [-1, last], so that the conversion to int
// is defined whatever v is; NaN maps to -1.
func floorRow(v float64, last int) int {
	if !(v >= 0) {
		return -1
	}
	if v >= float64(last) {
		return last
	}
	return int(v)
}

// FoldIntoRange maps an unbounded 1-D coordinate into [0, w] as if the
// moving point reflected elastically off the boundaries at 0 and w. It is
// the standard "unfolding" trick: the reflected trajectory equals the
// free trajectory folded by the triangle wave of period 2w. It lets the
// mobility model compute a bounced position in O(1) without tracking
// individual wall hits.
func FoldIntoRange(x, w float64) float64 {
	if w <= 0 {
		return 0
	}
	if 0 <= x && x <= w {
		// Already on the map, where the fold below is the identity
		// (Mod(x, 2w) is x itself, -0 included): skip the Mod, which is
		// most of the cost of a position on a map nobody has left yet.
		return x
	}
	period := 2 * w
	x = math.Mod(x, period)
	if x < 0 {
		x += period
	}
	if x > w {
		x = period - x
	}
	return x
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
