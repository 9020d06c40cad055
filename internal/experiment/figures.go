package experiment

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/geom"
	"repro/internal/manet"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// Spec is one reproducible experiment: a figure of the paper's
// evaluation, the claim it supports, and the code that regenerates it.
type Spec struct {
	// ID is the figure identity used on the command line ("fig7").
	ID string
	// Title is a one-line description.
	Title string
	// Paper summarizes the result the paper reports for this figure, so
	// a reader can compare shapes directly from the harness output.
	Paper string
	// Run regenerates the figure's data.
	Run func(o Options) []*Table
}

// Registry returns all experiment specs in paper order.
func Registry() []Spec {
	return []Spec{
		{
			ID:    "constants",
			Title: "Closed-form constants of the storm analysis (any radius)",
			Paper: "max additional coverage ~0.61, mean additional coverage ~0.41, contention probability ~0.59",
			Run:   runConstants,
		},
		{
			ID:    "fig1",
			Title: "Expected additional coverage EAC(k) after hearing a packet k times",
			Paper: "EAC(1)~0.41, EAC(2)~0.187, below 0.05 for k>=4",
			Run:   runFig1,
		},
		{
			ID:    "fig2",
			Title: "Contention analysis: probability of k contention-free hosts among n receivers",
			Paper: "cf(2,0)~0.59; cf(n,0)>0.8 for n>=6; cf(n,1) drops sharply; cf(n,n-1)=0",
			Run:   runFig2,
		},
		{
			ID:    "fig5a",
			Title: "Adaptive counter tuning: slope of C(n) before n1",
			Paper: "slope-1 sequence C(n)=2345... gives the best RE on sparse maps",
			Run: byMap("fig5a", "C(n) slope before n1", false,
				acCandidate("slope-1/3 (222333444555)", scheme.CounterTable(2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5)),
				acCandidate("slope-1/2 (22334455)", scheme.CounterTable(2, 2, 3, 3, 4, 4, 5, 5)),
				acCandidate("slope-1 (2345)", scheme.CounterTable(2, 3, 4, 5))),
		},
		{
			ID:    "fig5b",
			Title: "Adaptive counter tuning: choice of n1",
			Paper: "n1=4 and 5 give satisfactory RE; n1=4 saves more rebroadcasts",
			Run: byMap("fig5b", "choice of n1 with C(n)=n+1 capped", false,
				acCandidate("n1=2 (233...)", scheme.CounterTable(2, 3)),
				acCandidate("n1=3 (2344...)", scheme.CounterTable(2, 3, 4)),
				acCandidate("n1=4 (23455...)", scheme.CounterTable(2, 3, 4, 5)),
				acCandidate("n1=5 (234566...)", scheme.CounterTable(2, 3, 4, 5, 6))),
		},
		{
			ID:    "fig5c",
			Title: "Adaptive counter tuning: choice of n2",
			Paper: "n2=12 gives the best RE on sparse maps with good SRB",
			Run: byMap("fig5c", "choice of n2 with n1=4, linear decay", false,
				acCandidate("n2=8", scheme.LinearCounterFunc(4, 8)),
				acCandidate("n2=12", scheme.LinearCounterFunc(4, 12)),
				acCandidate("n2=16", scheme.LinearCounterFunc(4, 16))),
		},
		{
			ID:    "fig5d",
			Title: "Adaptive counter tuning: decay shape between n1 and n2",
			Paper: "the intermediate (solid-line) decay balances RE and SRB best",
			Run: byMap("fig5d", "decay shape between n1=4 and n2=12", false,
				// Fast (convex) decay toward 2.
				acCandidate("fast-decay", scheme.CounterTable(2, 3, 4, 5, 4, 4, 3, 3, 2, 2, 2, 2)),
				// The paper's recommended middle curve (solid line of its Fig. 6).
				acCandidate("recommended", scheme.DefaultCounterFunc()),
				// Slow (concave) decay that stays high longer.
				acCandidate("slow-decay", scheme.CounterTable(2, 3, 4, 5, 5, 5, 4, 4, 4, 3, 3, 2))),
		},
		{
			ID:    "fig6",
			Title: "Candidate decreasing functions C(n) between n1 and n2",
			Paper: "the solid (recommended) line: C(n)=n+1 to n1=4, stepping down to 2 at n2=12",
			Run:   runFig6,
		},
		{
			ID:    "fig7",
			Title: "Adaptive counter vs fixed counter thresholds (RE, SRB, latency)",
			Paper: "C=2 loses RE on sparse maps, C=6 loses SRB everywhere; AC keeps RE high with strong SRB in dense maps",
			Run: byMap("fig7", "fixed counter vs adaptive counter", true,
				use("C=2", scheme.Counter{C: 2}),
				use("C=4", scheme.Counter{C: 4}),
				use("C=6", scheme.Counter{C: 6}),
				use("AC", scheme.AdaptiveCounter{})),
		},
		{
			ID:    "fig8",
			Title: "Candidate threshold functions A(n) for the adaptive location scheme",
			Paper: "0 below n1, linear to EAC(2)/pi r^2 = 0.187 at n2; knees (n1,n2) are the tuning knobs",
			Run:   runFig8,
		},
		{
			ID:    "fig9",
			Title: "Adaptive location threshold functions A(n) compared",
			Paper: "(6,12), (8,12), (8,10) deliver satisfactory RE; (6,12) has the best SRB balance",
			Run: byMap("fig9", "A(n) knee-point candidates", false,
				alCandidate(2, 8),
				alCandidate(4, 10),
				alCandidate(6, 12),
				alCandidate(8, 10),
				alCandidate(8, 12)),
		},
		{
			ID:    "fig10",
			Title: "Adaptive location vs fixed location thresholds (RE, SRB, latency)",
			Paper: "fixed A degrades RE significantly on sparse maps; AL keeps RE high without sacrificing SRB",
			Run: byMap("fig10", "fixed location vs adaptive location", true,
				use("A=0.1871", scheme.Location{A: 0.1871}),
				use("A=0.0469", scheme.Location{A: 0.0469}),
				use("A=0.0134", scheme.Location{A: 0.0134}),
				use("AL", scheme.AdaptiveLocation{})),
		},
		{
			ID:    "fig11",
			Title: "Neighbor coverage: RE vs hello interval and host speed",
			Paper: "long hello intervals degrade RE on sparse maps, worse at high speed; small maps are insensitive",
			Run: func(o Options) []*Table {
				o = o.WithDefaults()
				s := sweep{
					base: manet.Config{Scheme: scheme.NeighborCoverage{}, HelloMode: manet.HelloFixed},
					axes: []axis{
						// The paper examines the sparser maps where staleness matters.
						maps([]int{5, 7, 9, 11}),
						values(o.HelloIntervalsMS, "%dms", func(c *manet.Config, ms int) {
							c.HelloInterval = sim.Duration(ms) * sim.Millisecond
						}),
						speeds(o.Speeds, "%gkm/h"),
					},
				}
				v := view{corner: "hello interval", rows: 1, cols: []int{2}}
				return s.tables(o, "fig11", v.of("NC reachability on %s map", re))
			},
		},
		{
			ID:    "fig12",
			Title: "Neighbor coverage with dynamic hello interval (RE, SRB, hello cost)",
			Paper: "NC-DHI keeps RE high across speeds and densities; hello count adapts (near himin on sparse maps, near himax on 1x1)",
			Run: func(o Options) []*Table {
				o = o.WithDefaults()
				s := sweep{
					base: manet.Config{Scheme: scheme.NeighborCoverage{}, HelloMode: manet.HelloDynamic},
					axes: []axis{maps(o.Maps), speeds(o.Speeds, "%gkm/h")},
				}
				v := view{corner: "map", cols: []int{1}}
				return s.tables(o, "fig12", v.of("NC-DHI reachability", re),
					v.of("NC-DHI saved rebroadcasts", srb), v.of("HELLO packets sent per run", hellos))
			},
		},
		{
			ID:    "fig13",
			Title: "Overall comparison: SRB vs RE for all schemes on every map",
			Paper: "adaptive schemes keep RE above ~95% everywhere; flooding has SRB 0 and loses RE to collisions; NC best on dense maps, AC/AL best on sparse maps",
			Run: func(o Options) []*Table {
				o = o.WithDefaults()
				candidates := axis{
					use("flooding", scheme.Flooding{}),
					use("C=2", scheme.Counter{C: 2}),
					use("C=6", scheme.Counter{C: 6}),
					use("AC", scheme.AdaptiveCounter{}),
					use("A=0.1871", scheme.Location{A: 0.1871}),
					use("A=0.0134", scheme.Location{A: 0.0134}),
					use("AL", scheme.AdaptiveLocation{}),
					ncDHI,
				}
				// Best RE first for readability; the scatter data is the
				// same either way.
				v := view{corner: "scheme", rows: 1, byRE: true}
				return sweep{axes: []axis{maps(o.Maps), candidates}}.tables(o, "fig13",
					v.of("SRB vs RE on the %s map (upper-right is better)", re, srb, latency))
			},
		},
	}
}

// LookupAny finds a spec among figures and ablations.
func LookupAny(id string) (Spec, bool) {
	for _, s := range append(Registry(), Ablations()...) {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// --- Analysis figures (no network simulation) ---

// runConstants evaluates the three closed forms of the paper's §2.2
// analysis. Each is a fraction of the disk, so the radius is arbitrary.
// Four digits: rounded to three, 3√3/4π = 0.41350 reads 0.413.
func runConstants(Options) []*Table {
	const r = 500.0
	t := NewTable("constants", "closed-form storm constants", "quantity", "value")
	t.AddRow("max additional coverage at d=r, of pi r^2", fmt.Sprintf("%.4f", geom.AdditionalCoverageFraction(r, r)))
	t.AddRow("mean additional coverage (1 sender), of pi r^2", fmt.Sprintf("%.4f", geom.ExpectedAdditionalCoverageFraction(r)))
	t.AddRow("pairwise contention probability", fmt.Sprintf("%.4f", geom.ExpectedContentionProbability(r)))
	return []*Table{t}
}

func runFig1(o Options) []*Table {
	o = o.WithDefaults()
	rng := sim.NewRNG(o.BaseSeed)
	series := analysis.EACSeries(10, o.Trials, 48, rng)
	t := NewTable("fig1", "EAC(k)/(pi r^2) vs k", "k", "EAC(k)")
	for k, v := range series {
		t.AddRow(fmt.Sprintf("%d", k+1), f3(v))
	}
	return []*Table{t}
}

func runFig2(o Options) []*Table {
	o = o.WithDefaults()
	rng := sim.NewRNG(o.BaseSeed)
	const maxN = 10
	table := analysis.ContentionFreeTable(maxN, o.Trials, rng)
	cols := []string{"n"}
	for k := 0; k <= 4; k++ {
		cols = append(cols, fmt.Sprintf("cf(n,%d)", k))
	}
	t := NewTable("fig2", "probability of k contention-free hosts among n receivers", cols...)
	for n := 1; n <= maxN; n++ {
		row := []string{fmt.Sprintf("%d", n)}
		for k := 0; k <= 4; k++ {
			if k < len(table[n-1]) {
				row = append(row, f3(table[n-1][k]))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return []*Table{t}
}

// runFig6 tabulates the candidate C(n) decay shapes (the paper's Fig. 6
// plots these functions directly; no simulation involved).
func runFig6(Options) []*Table {
	candidates := []struct {
		label string
		fn    scheme.CounterFunc
	}{
		{"fast-decay", scheme.CounterTable(2, 3, 4, 5, 4, 4, 3, 3, 2, 2, 2, 2)},
		{"recommended (solid)", scheme.DefaultCounterFunc()},
		{"slow-decay", scheme.CounterTable(2, 3, 4, 5, 5, 5, 4, 4, 4, 3, 3, 2)},
		{"linear(4,12)", scheme.LinearCounterFunc(4, 12)},
	}
	cols := []string{"function"}
	for n := 1; n <= 14; n++ {
		cols = append(cols, fmt.Sprintf("n=%d", n))
	}
	t := NewTable("fig6", "C(n) candidates between n1=4 and n2=12", cols...)
	for _, c := range candidates {
		row := []string{c.label}
		for n := 1; n <= 14; n++ {
			row = append(row, fmt.Sprintf("%d", c.fn(n)))
		}
		t.AddRow(row...)
	}
	return []*Table{t}
}

// runFig8 tabulates the A(n) candidates (the paper's Fig. 8).
func runFig8(Options) []*Table {
	knees := [][2]int{{2, 8}, {4, 10}, {6, 12}, {8, 10}, {8, 12}}
	cols := []string{"function"}
	for n := 0; n <= 14; n += 2 {
		cols = append(cols, fmt.Sprintf("n=%d", n))
	}
	t := NewTable("fig8", "A(n) candidates (ceiling EAC(2)/pi r^2 = 0.187)", cols...)
	for _, k := range knees {
		fn := scheme.LinearLocationFunc(k[0], k[1], scheme.EAC2Fraction)
		row := []string{fmt.Sprintf("A(%d,%d)", k[0], k[1])}
		for n := 0; n <= 14; n += 2 {
			row = append(row, fmt.Sprintf("%.3f", fn(n)))
		}
		t.AddRow(row...)
	}
	return []*Table{t}
}

// --- Simulation figures ---

// byMap is the shape most figures share: every candidate on every map,
// candidates as rows and maps as columns, in an RE, an SRB and, with
// withLatency, a latency table.
func byMap(id, title string, withLatency bool, candidates ...edit) func(Options) []*Table {
	return func(o Options) []*Table {
		o = o.WithDefaults()
		v := view{corner: "scheme", cols: []int{1}}
		views := []view{v.of(title+" — RE (reachability)", re), v.of(title+" — SRB (saved rebroadcasts)", srb)}
		if withLatency {
			views = append(views, v.of(title+" — mean broadcast latency", latency))
		}
		return sweep{axes: []axis{candidates, maps(o.Maps)}}.tables(o, id, views...)
	}
}

// acCandidate builds an adaptive-counter candidate from a C(n) table.
func acCandidate(label string, fn scheme.CounterFunc) edit {
	return use(label, scheme.AdaptiveCounter{C: fn, Label: label})
}

// alCandidate is adaptive location with A(n) rising linearly from 0 at
// n1 to EAC(2)/pi r^2 at n2.
func alCandidate(n1, n2 int) edit {
	label := fmt.Sprintf("AL(%d,%d)", n1, n2)
	return use(label, scheme.AdaptiveLocation{A: scheme.LinearLocationFunc(n1, n2, scheme.EAC2Fraction), Label: label})
}

// ncDHI is neighbor coverage with the dynamic hello interval.
var ncDHI = edit{"NC-DHI", func(c *manet.Config) {
	c.Scheme, c.HelloMode = scheme.NeighborCoverage{Label: "NC-DHI"}, manet.HelloDynamic
}}
