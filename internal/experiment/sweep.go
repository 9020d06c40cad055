package experiment

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/manet"
	"repro/internal/metrics"
	"repro/internal/scheme"
	"repro/internal/stats"
)

// sweep is the shape of every simulated figure and ablation: a base
// configuration and an ordered list of axes. Its points are every
// combination of one edit per axis, the last axis varying fastest, and
// point p runs on RunMatrix's seeds for point p, so reordering a spec's
// axes reseeds its points and moves its numbers.
type sweep struct {
	base manet.Config
	axes []axis
}

// axis is one dimension of a sweep: scheme candidates, maps, speeds, ...
type axis []edit

// edit is one labelled value along an axis: it writes that value into a
// point's configuration.
type edit struct {
	label string
	set   func(*manet.Config)
}

// use is the edit that sets only the scheme.
func use(label string, s scheme.Scheme) edit {
	return edit{label, func(c *manet.Config) { c.Scheme = s }}
}

// values is an axis with one edit per value, labelled with format.
func values[T any](vs []T, format string, set func(*manet.Config, T)) axis {
	a := make(axis, len(vs))
	for i, v := range vs {
		a[i] = edit{fmt.Sprintf(format, v), func(c *manet.Config) { set(c, v) }}
	}
	return a
}

func maps(units []int) axis {
	return values(units, "%[1]dx%[1]d", func(c *manet.Config, mu int) { c.MapUnits = mu })
}

func speeds(kmh []float64, format string) axis {
	return values(kmh, format, func(c *manet.Config, v float64) { c.MaxSpeedKMH = v })
}

// metric is what a table cell shows of a point.
type metric int

const (
	re metric = iota
	srb
	latency
	hellos // HELLO transmissions per replica
)

func (m metric) String() string { return [...]string{"RE", "SRB", "latency", "HELLO"}[m] }

// cell formats m over one point's replicas; with ci, RE carries its 95%
// confidence half-width.
func (m metric) cell(reps []metrics.Summary, ci bool) string {
	s := metrics.Merge(reps)
	switch m {
	case re:
		if !ci {
			return f3(s.MeanRE)
		}
		res := make([]float64, len(reps))
		for r, rep := range reps {
			res[r] = rep.MeanRE
		}
		_, half := stats.CI95(res)
		return fmt.Sprintf("%.3f±%.3f", s.MeanRE, half)
	case srb:
		return f3(s.MeanSRB)
	case latency:
		return fms(s.MeanLatency.Milliseconds())
	}
	return fmt.Sprintf("%d", s.HelloSent/len(reps))
}

// view pivots a sweep's results into tables: one axis as rows, zero to
// two as columns with the metrics side by side under each, and one table
// per coordinate of the remaining axes, whose labels fill the title's %s.
type view struct {
	title, corner string
	rows          int
	cols          []int
	metrics       []metric
	// fixed, if set, is a column of given cells, one per row, after the
	// row label.
	fixed *column
	// byRE lists rows by descending RE instead of in axis order; it
	// needs a view without column axes.
	byRE bool
}

type column struct {
	head  string
	cells []string
}

// of is v titled title, showing ms.
func (v view) of(title string, ms ...metric) view {
	v.title, v.metrics = title, ms
	return v
}

// tables simulates every point of s through RunMatrix's worker pool and
// renders each view in turn.
func (s sweep) tables(o Options, id string, views ...view) []*Table {
	points := s.product(seq(len(s.axes)))
	cfgs := make([]manet.Config, len(points))
	for p, c := range points {
		cfgs[p] = s.base
		for d, i := range c {
			s.axes[d][i].set(&cfgs[p])
		}
	}
	reps := runReplicas(cfgs, o)
	var out []*Table
	for _, v := range views {
		rest := slices.DeleteFunc(seq(len(s.axes)), func(d int) bool {
			return d == v.rows || slices.Contains(v.cols, d)
		})
		for _, at := range s.product(rest) {
			c := make([]int, len(s.axes))
			for i, d := range rest {
				c[d] = at[i]
			}
			title := v.title
			if len(rest) > 0 {
				title = fmt.Sprintf(title, s.labels(rest, at, ", "))
			}
			out = append(out, s.table(id, title, v, c, reps, o.CI))
		}
	}
	return out
}

// table renders v at the coordinates c of the axes v does not draw.
func (s sweep) table(id, title string, v view, c []int, reps [][]metrics.Summary, ci bool) *Table {
	heads := []string{v.corner}
	if v.fixed != nil {
		heads = append(heads, v.fixed.head)
	}
	cols := s.product(v.cols)
	for _, at := range cols {
		for _, m := range v.metrics {
			h := s.labels(v.cols, at, "@")
			if len(v.metrics) > 1 {
				h = strings.TrimSpace(h + " " + m.String())
			}
			heads = append(heads, h)
		}
	}
	t := NewTable(id, title, heads...)
	at := func(row int) []metrics.Summary {
		c[v.rows] = row
		return reps[s.index(c)]
	}
	rows := seq(len(s.axes[v.rows]))
	if v.byRE {
		key := func(r int) string { return re.cell(at(r), false) }
		sort.SliceStable(rows, func(i, j int) bool { return key(rows[i]) > key(rows[j]) })
	}
	for _, r := range rows {
		row := []string{s.axes[v.rows][r].label}
		if v.fixed != nil {
			row = append(row, v.fixed.cells[r])
		}
		for _, col := range cols {
			for i, d := range v.cols {
				c[d] = col[i]
			}
			for _, m := range v.metrics {
				row = append(row, m.cell(at(r), ci))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// product lists every combination of coordinates along dims, the first
// dimension outermost.
func (s sweep) product(dims []int) [][]int {
	out := [][]int{{}}
	for _, d := range dims {
		var next [][]int
		for _, pre := range out {
			for i := range s.axes[d] {
				next = append(next, append(slices.Clip(pre), i))
			}
		}
		out = next
	}
	return out
}

// index is the number of the point at coordinates c: the last axis
// varies fastest, as in product.
func (s sweep) index(c []int) int {
	p := 0
	for d, i := range c {
		p = p*len(s.axes[d]) + i
	}
	return p
}

// labels joins the labels of the coordinates at along dims.
func (s sweep) labels(dims, at []int, sep string) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = s.axes[d][at[i]].label
	}
	return strings.Join(parts, sep)
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
