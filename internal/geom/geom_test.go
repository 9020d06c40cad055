package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const r = 500.0 // meters, the paper's radio radius

func TestINTCBoundaryCases(t *testing.T) {
	full := math.Pi * r * r
	if got := INTC(0, r); math.Abs(got-full) > 1e-6 {
		t.Errorf("INTC(0) = %v, want full disk %v", got, full)
	}
	if got := INTC(2*r, r); got != 0 {
		t.Errorf("INTC(2r) = %v, want 0", got)
	}
	if got := INTC(3*r, r); got != 0 {
		t.Errorf("INTC(3r) = %v, want 0 for disjoint circles", got)
	}
	if got := INTC(-1, r); math.Abs(got-full) > 1e-6 {
		t.Errorf("INTC(negative) = %v, want full disk", got)
	}
}

func TestINTCMonotoneDecreasing(t *testing.T) {
	prev := INTC(0, r)
	for d := 10.0; d <= 2*r; d += 10 {
		cur := INTC(d, r)
		if cur > prev+1e-9 {
			t.Fatalf("INTC not monotone at d=%v: %v > %v", d, cur, prev)
		}
		prev = cur
	}
}

// TestPaper61Percent checks the paper's claim that the maximum additional
// coverage of a rebroadcast, at d = r, is about 0.61*pi*r^2.
func TestPaper61Percent(t *testing.T) {
	frac := AdditionalCoverageFraction(r, r)
	if math.Abs(frac-0.61) > 0.005 {
		t.Errorf("additional coverage fraction at d=r is %v, paper says ~0.61", frac)
	}
}

// TestPaper41Percent checks the paper's claim that the average additional
// coverage over a uniformly placed rebroadcaster is about 0.41*pi*r^2.
func TestPaper41Percent(t *testing.T) {
	got := ExpectedAdditionalCoverageFraction(r)
	if math.Abs(got-0.41) > 0.005 {
		t.Errorf("expected additional coverage fraction = %v, paper says ~0.41", got)
	}
}

// TestPaper59PercentContention checks the paper's pairwise contention
// probability of about 59%.
func TestPaper59PercentContention(t *testing.T) {
	got := ExpectedContentionProbability(r)
	if math.Abs(got-0.59) > 0.005 {
		t.Errorf("expected contention probability = %v, paper says ~0.59", got)
	}
}

func TestAdditionalCoverageRange(t *testing.T) {
	prop := func(rawD uint16) bool {
		d := math.Mod(float64(rawD), 2.5*r)
		frac := AdditionalCoverageFraction(d, r)
		return frac >= -1e-12 && frac <= 1+1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestUncoveredFractionNoSenders(t *testing.T) {
	got := UncoveredFraction(Point{0, 0}, nil, r, 64)
	if got != 1 {
		t.Errorf("uncovered fraction with no senders = %v, want 1", got)
	}
}

func TestUncoveredFractionSelfSender(t *testing.T) {
	// A sender at the same point covers everything.
	got := UncoveredFraction(Point{0, 0}, []Point{{0, 0}}, r, 64)
	if got != 0 {
		t.Errorf("uncovered fraction with co-located sender = %v, want 0", got)
	}
}

// TestUncoveredFractionMatchesAnalytic compares the grid estimator for a
// single sender against the closed-form additional coverage.
func TestUncoveredFractionMatchesAnalytic(t *testing.T) {
	for _, d := range []float64{50, 125, 250, 375, 450, 499} {
		got := UncoveredFraction(Point{0, 0}, []Point{{d, 0}}, r, 96)
		want := AdditionalCoverageFraction(d, r)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("d=%v: grid=%v analytic=%v", d, got, want)
		}
	}
}

func TestUncoveredFractionMonotoneInSenders(t *testing.T) {
	center := Point{0, 0}
	senders := []Point{{300, 0}, {-200, 150}, {0, -350}, {100, 300}}
	prev := 1.0
	for i := range senders {
		cur := UncoveredFraction(center, senders[:i+1], r, 64)
		if cur > prev+1e-9 {
			t.Fatalf("adding sender %d increased uncovered fraction: %v > %v", i, cur, prev)
		}
		prev = cur
	}
}

func TestUncoveredFractionDistantSender(t *testing.T) {
	// A sender beyond 2r covers none of the disk.
	got := UncoveredFraction(Point{0, 0}, []Point{{3 * r, 0}}, r, 64)
	if got != 1 {
		t.Errorf("distant sender changed coverage: %v", got)
	}
}

// sampledUncoveredFraction is UncoveredFraction's definition, visited
// sample by sample: the loop the column-interval kernel replaced, kept
// as the oracle the kernel must equal bit for bit.
func sampledUncoveredFraction(center Point, senders []Point, r float64, resolution int) float64 {
	if resolution < 2 {
		resolution = 2
	}
	r2 := r * r
	step := 2 * r / float64(resolution)
	inside, uncovered := 0, 0
	for i := 0; i < resolution; i++ {
		x := center.X - r + (float64(i)+0.5)*step
		for j := 0; j < resolution; j++ {
			y := center.Y - r + (float64(j)+0.5)*step
			p := Point{x, y}
			if p.Dist2(center) > r2 {
				continue
			}
			inside++
			covered := false
			for _, s := range senders {
				if p.Dist2(s) <= r2 {
					covered = true
					break
				}
			}
			if !covered {
				uncovered++
			}
		}
	}
	if inside == 0 {
		return 0
	}
	return float64(uncovered) / float64(inside)
}

// coverageResolutions straddle the kernel's 64-row chunk: below it, at
// it, one over, and past two chunks.
var coverageResolutions = []int{2, 3, 47, 48, 63, 64, 65, 130}

// latticeSenders returns senders placed exactly r from sample (i, j) of
// the grid UncoveredFraction lays over center — left, right, below and
// above it — so the sample sits on each sender's range boundary, where
// an estimated run end is most likely to be one row off.
func latticeSenders(center Point, r float64, resolution, i, j int) []Point {
	step := 2 * r / float64(resolution)
	x := center.X - r + (float64(i)+0.5)*step
	y := center.Y - r + (float64(j)+0.5)*step
	return []Point{{x - r, y}, {x + r, y}, {x, y - r}, {x, y + r}}
}

// TestUncoveredFractionMatchesSampled holds the kernel to the sampled
// definition with == on the float: random neighbourhoods, senders on the
// sample lattice exactly r away, a sender on the centre, senders out of
// reach, integer and 1e7-scale centres, degenerate radii.
func TestUncoveredFractionMatchesSampled(t *testing.T) {
	check := func(what string, center Point, senders []Point, r float64, res int) {
		t.Helper()
		got := UncoveredFraction(center, senders, r, res)
		want := sampledUncoveredFraction(center, senders, r, res)
		if got != want {
			t.Fatalf("%s: center=%v r=%v res=%d senders=%v: kernel %v, sampled %v",
				what, center, r, res, senders, got, want)
		}
	}
	rng := rand.New(rand.NewSource(20))
	centers := []Point{{0, 0}, {250, 4750}, {-3, 17}, {1e7, -1e7}, {1e7 + 0.5, 3e7 + 0.25}}
	for _, r := range []float64{0, 1e-9, 1, 500} {
		for _, res := range coverageResolutions {
			for ci, c := range centers {
				check("no senders", c, nil, r, res)
				check("sender on the centre", c, []Point{c}, r, res)
				check("senders beyond 2r", c, []Point{{c.X + 2.5*r, c.Y}, {c.X, c.Y - 3*r}, {c.X + 2*r, c.Y + 2*r}}, r, res)
				for _, ij := range [][2]int{{0, 0}, {res / 2, res / 2}, {res - 1, res / 3}, {res / 3, res - 1}} {
					check("lattice", c, latticeSenders(c, r, res, ij[0], ij[1]), r, res)
				}
				// Random neighbourhoods: 0...30 senders within 2.2r, so
				// some miss the disk altogether.
				trials := 40
				if res > 64 {
					trials = 6
				}
				for k := 0; k < trials; k++ {
					center := c
					if ci == 1 {
						center = Point{rng.Float64() * 5000, rng.Float64() * 5000}
					}
					senders := make([]Point, rng.Intn(31))
					for i := range senders {
						d, a := 2.2*r*math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
						senders[i] = Point{center.X + d*math.Cos(a), center.Y + d*math.Sin(a)}
					}
					check("random", center, senders, r, res)
				}
			}
		}
	}
	// Every sample of a small grid, as the boundary point of four senders.
	for _, res := range []int{2, 3, 8} {
		for i := 0; i < res; i++ {
			for j := 0; j < res; j++ {
				check("lattice sweep", Point{100, 200}, latticeSenders(Point{100, 200}, 500, res, i, j), 500, res)
			}
		}
	}
	// Resolutions below 2 are raised to 2.
	check("resolution 0", Point{1, 2}, []Point{{200, 2}}, 500, 0)
}

// TestUncoveredFractionAgainstClosedForm pins what the grid estimator is
// worth where a closed form exists: one sender, against
// AdditionalCoverageFraction, over 20,000 random (centre, sender) pairs
// at the paper's radius. Measured: mean absolute error 1.2e-3, worst
// 4.5e-3, mean signed error -0.6e-3 at resolution 48 (the grid reads
// slightly LESS additional coverage than there is); 0.8e-3, 4.6e-3 and
// +0.7e-3 at 64.
func TestUncoveredFractionAgainstClosedForm(t *testing.T) {
	for _, res := range []int{48, 64} {
		rng := rand.New(rand.NewSource(7))
		var sum, sumAbs, worst float64
		const pairs = 20000
		for k := 0; k < pairs; k++ {
			c := Point{rng.Float64() * 5000, rng.Float64() * 5000}
			d, a := r*math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
			s := Point{c.X + d*math.Cos(a), c.Y + d*math.Sin(a)}
			err := UncoveredFraction(c, []Point{s}, r, res) - AdditionalCoverageFraction(c.Dist(s), r)
			sum += err
			sumAbs += math.Abs(err)
			worst = math.Max(worst, math.Abs(err))
		}
		mean, meanAbs := sum/pairs, sumAbs/pairs
		t.Logf("resolution %d: mean |err| %.2e, worst %.2e, mean signed %+.2e", res, meanAbs, worst, mean)
		if worst > 6e-3 {
			t.Errorf("resolution %d: worst absolute error %.2e exceeds 6e-3", res, worst)
		}
		if math.Abs(mean) > 1.5e-3 {
			t.Errorf("resolution %d: mean signed error %+.2e exceeds 1.5e-3 in size", res, mean)
		}
	}
}

func TestFoldIntoRange(t *testing.T) {
	cases := []struct {
		x, w, want float64
	}{
		{0, 10, 0},
		{5, 10, 5},
		{10, 10, 10},
		{12, 10, 8},   // bounced off far wall
		{20, 10, 0},   // back at origin
		{23, 10, 3},   // second traversal
		{-3, 10, 3},   // bounced off near wall
		{-12, 10, 8},  // bounce then past far wall in mirror space
		{45, 10, 5},   // many periods
		{-45, 10, 5},  // many negative periods
		{0.5, 0, 0},   // degenerate width
		{-0.5, -1, 0}, // negative width treated as degenerate
	}
	for _, c := range cases {
		if got := FoldIntoRange(c.x, c.w); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("FoldIntoRange(%v, %v) = %v, want %v", c.x, c.w, got, c.want)
		}
	}
}

// modFold is FoldIntoRange as the triangle wave alone, with no shortcut
// for coordinates already on the map: the formula the shortcut must
// reproduce bit for bit.
func modFold(x, w float64) float64 {
	if w <= 0 {
		return 0
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

// TestFoldIntoRangeBits compares FoldIntoRange with the Mod formula on
// the float's bits, so that -0 and NaN count: the edges of the shortcut's
// interval, the values just outside it, the non-finite ones, and random
// coordinates up to a few map widths either side.
func TestFoldIntoRangeBits(t *testing.T) {
	check := func(x, w float64) {
		t.Helper()
		got, want := FoldIntoRange(x, w), modFold(x, w)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("FoldIntoRange(%v, %v) = %v (%#x), Mod formula gives %v (%#x)",
				x, w, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, w := range []float64{1, 500, 5500, 0.1, 1e-300, 0, -1} {
		for _, x := range []float64{
			0, math.Copysign(0, -1), w, math.Nextafter(w, math.Inf(1)), math.Nextafter(w, 0),
			-math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, -1e-9,
			2 * w, 3 * w, -w, w / 2, w / 3,
			math.NaN(), math.Inf(1), math.Inf(-1),
		} {
			check(x, w)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		w := 500 + 5000*rng.Float64()
		check((rng.Float64()*8-4)*w, w)
	}
}

func TestFoldIntoRangeProperty(t *testing.T) {
	prop := func(x float64, rawW uint16) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
			return true // skip degenerate float inputs
		}
		w := float64(rawW%1000) + 1
		got := FoldIntoRange(x, w)
		return got >= 0 && got <= w
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFoldContinuity verifies the fold is continuous: adjacent inputs map
// to adjacent outputs, which is what makes it usable for motion.
func TestFoldContinuity(t *testing.T) {
	w := 7.0
	prev := FoldIntoRange(-30, w)
	for x := -30.0 + 0.01; x < 30; x += 0.01 {
		cur := FoldIntoRange(x, w)
		if math.Abs(cur-prev) > 0.011 {
			t.Fatalf("fold discontinuous at x=%v: %v -> %v", x, prev, cur)
		}
		prev = cur
	}
}

func TestPointOps(t *testing.T) {
	p := Point{3, 4}
	if d := p.Dist(Point{0, 0}); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d2 := p.Dist2(Point{0, 0}); d2 != 25 {
		t.Errorf("Dist2 = %v, want 25", d2)
	}
}
