package geom

import "math/bits"

// coverageTile is the edge of a Coverage tile in samples: one uint64
// row mask per column.
const coverageTile = 64

// Coverage is UncoveredFraction kept between calls: the samples of the
// host's own disk that no sender added so far covers, one uint64 row
// mask per sample column. Adding a sender clears that sender's row run
// in the columns still holding a sample, so a host that hears its k-th
// sender pays for that disk alone, not for all k again. The masks and
// counts are the ones UncoveredFraction builds, so Fraction after
// Add(s1, …, sk) equals UncoveredFraction(center, [s1 … sk], r,
// resolution) bit for bit. The zero value is ready for Reset, and a
// Reset Coverage keeps nothing of its previous use, so one may be pooled.
type Coverage struct {
	r2, step, inv float64
	left          float64 // the sample grid's left edge, center.X - r
	i0            int     // the tile's first column in the full grid
	rows, cols    int
	inside        int
	uncovered     int
	ys            [coverageTile]float64
	free          [coverageTile]uint64
}

// Reset starts an estimate for the disk of radius r around center at
// the given resolution (below 2 means 2), with no sender added yet. A
// Coverage holds one tile of at most 64 x 64 samples, so Reset panics
// for a resolution above 64; UncoveredFraction serves larger ones.
func (c *Coverage) Reset(center Point, r float64, resolution int) {
	resolution = max(resolution, 2)
	if resolution > coverageTile {
		panic("geom: Coverage resolution above 64")
	}
	c.reset(center, r, resolution, 0, 0)
}

// reset lays the tile whose first column is i0 and first row j0 over the
// resolution x resolution sample grid around center and fills each
// column's mask with the tile's samples inside the own disk.
func (c *Coverage) reset(center Point, r float64, resolution, i0, j0 int) {
	c.r2 = r * r
	c.step = 2 * r / float64(resolution)
	c.inv = 1 / c.step
	c.left = center.X - r
	c.i0 = i0
	c.rows = min(coverageTile, resolution-j0)
	for j := range c.ys[:c.rows] {
		c.ys[j] = center.Y - r + (float64(j0+j)+0.5)*c.step
	}
	c.cols = min(coverageTile, resolution-i0)
	c.inside = 0
	for i := range c.free[:c.cols] {
		c.free[i] = rowMask(c.x(i), c.ys[:c.rows], center, c.r2, c.inv)
		c.inside += bits.OnesCount64(c.free[i])
	}
	c.uncovered = c.inside
}

// x returns the abscissa of the tile's column i, computed as
// UncoveredFraction's definition places it.
func (c *Coverage) x(i int) float64 {
	return c.left + (float64(c.i0+i)+0.5)*c.step
}

// Add takes the disks of radius r around the given senders out of the
// uncovered samples.
func (c *Coverage) Add(senders ...Point) {
	if len(senders) == 0 || c.uncovered == 0 {
		return
	}
	ys := c.ys[:c.rows]
	r2, inv := c.r2, c.inv
	removed := 0
	for i, free := range c.free[:c.cols] {
		if free == 0 {
			continue
		}
		x := c.x(i)
		left := free
		for _, s := range senders {
			// rowMask's own first test, hoisted: the column misses the
			// sender's disk altogether.
			if dx := x - s.X; dx*dx > r2 {
				continue
			}
			// The rows a disk holds form one run, so a disk that holds
			// the lowest and highest sample still free holds all of them.
			lo, hi := bits.TrailingZeros64(left), 63-bits.LeadingZeros64(left)
			if within(x, ys[lo], s, r2) && within(x, ys[hi], s, r2) {
				left = 0
				break
			}
			if left &^= rowMask(x, ys, s, r2, inv); left == 0 {
				break
			}
		}
		if left != free {
			c.free[i] = left
			removed += bits.OnesCount64(free &^ left)
		}
	}
	c.uncovered -= removed
}

// Fraction returns the uncovered share of the own disk's samples: 0 for
// a disk that holds no sample.
func (c *Coverage) Fraction() float64 {
	return fraction(c.uncovered, c.inside)
}

func fraction(uncovered, inside int) float64 {
	if inside == 0 {
		return 0
	}
	return float64(uncovered) / float64(inside)
}
