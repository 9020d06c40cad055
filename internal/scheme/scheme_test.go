package scheme

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/nodeset"
	"repro/internal/packet"
)

// fakeHost implements HostView for scheme unit tests.
type fakeHost struct {
	id        packet.NodeID
	pos       geom.Point
	radius    float64
	neighbors []packet.NodeID
	twoHop    map[packet.NodeID][]packet.NodeID
	covFree   []*geom.Coverage
}

func (h *fakeHost) ID() packet.NodeID          { return h.id }
func (h *fakeHost) Position() geom.Point       { return h.pos }
func (h *fakeHost) Radius() float64            { return h.radius }
func (h *fakeHost) NeighborCount() int         { return len(h.neighbors) }
func (h *fakeHost) Neighbors() []packet.NodeID { return h.neighbors }
func (h *fakeHost) TwoHop(n packet.NodeID) []packet.NodeID {
	return h.twoHop[n]
}
func (h *fakeHost) NeighborNodeSet() *nodeset.Set {
	s := nodeset.New(0)
	for _, n := range h.neighbors {
		s.Add(n)
	}
	return s
}
func (h *fakeHost) AcquireNodeSet() *nodeset.Set  { return nodeset.New(0) }
func (h *fakeHost) ReleaseNodeSet(s *nodeset.Set) {}
func (h *fakeHost) AcquireCoverage() *geom.Coverage {
	if n := len(h.covFree); n > 0 {
		c := h.covFree[n-1]
		h.covFree = h.covFree[:n-1]
		return c
	}
	return new(geom.Coverage)
}
func (h *fakeHost) ReleaseCoverage(c *geom.Coverage) { h.covFree = append(h.covFree, c) }

var _ CoverageSource = (*fakeHost)(nil)

func host(neighbors ...packet.NodeID) *fakeHost {
	return &fakeHost{id: 0, radius: 500, neighbors: neighbors,
		twoHop: make(map[packet.NodeID][]packet.NodeID)}
}

func rx(from packet.NodeID, pos geom.Point) Reception {
	return Reception{From: from, SenderPos: pos}
}

// --- Flooding ---

func TestFloodingAlwaysProceeds(t *testing.T) {
	s := Flooding{}
	j := s.NewJudge(host(), rx(1, geom.Point{}))
	if j.Initial() != Proceed {
		t.Fatal("flooding inhibited initial rebroadcast")
	}
	for i := 0; i < 20; i++ {
		if j.OnDuplicate(rx(packet.NodeID(i), geom.Point{})) != Proceed {
			t.Fatal("flooding inhibited after duplicates")
		}
	}
	if s.NeedsHello() || s.NeedsPosition() {
		t.Error("flooding should need neither HELLO nor GPS")
	}
}

// --- Counter ---

func TestCounterInhibitsAtThreshold(t *testing.T) {
	s := Counter{C: 3}
	j := s.NewJudge(host(), rx(1, geom.Point{}))
	if j.Initial() != Proceed {
		t.Fatal("C=3 inhibited on first reception (c=1)")
	}
	if j.OnDuplicate(rx(2, geom.Point{})) != Proceed {
		t.Fatal("C=3 inhibited at c=2")
	}
	if j.OnDuplicate(rx(3, geom.Point{})) != Inhibit {
		t.Fatal("C=3 did not inhibit at c=3")
	}
}

func TestCounterC2InhibitsOnFirstDuplicate(t *testing.T) {
	j := Counter{C: 2}.NewJudge(host(), rx(1, geom.Point{}))
	if j.Initial() != Proceed {
		t.Fatal("C=2 inhibited immediately")
	}
	if j.OnDuplicate(rx(2, geom.Point{})) != Inhibit {
		t.Fatal("C=2 did not inhibit on first duplicate")
	}
}

func TestCounterC1DegeneratesToSourceOnly(t *testing.T) {
	j := Counter{C: 1}.NewJudge(host(), rx(1, geom.Point{}))
	if j.Initial() != Inhibit {
		t.Error("C=1 should inhibit every rebroadcast")
	}
}

func TestCounterThresholdProperty(t *testing.T) {
	// For any C >= 2, the judge proceeds through exactly C-1 receptions
	// and inhibits on the C-th.
	prop := func(rawC uint8) bool {
		c := int(rawC%8) + 2
		j := Counter{C: c}.NewJudge(host(), rx(1, geom.Point{}))
		if j.Initial() != Proceed {
			return false
		}
		for k := 2; k < c; k++ {
			if j.OnDuplicate(rx(2, geom.Point{})) != Proceed {
				return false
			}
		}
		return j.OnDuplicate(rx(2, geom.Point{})) == Inhibit
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// --- Distance ---

func TestDistanceInhibitsCloseSender(t *testing.T) {
	h := host()
	s := Distance{D: 100}
	// First sender 50 m away: too close, inhibit at once.
	j := s.NewJudge(h, rx(1, geom.Point{X: 50}))
	if j.Initial() != Inhibit {
		t.Error("sender at 50m < D=100m should inhibit")
	}
	// First sender 400 m away: proceed; duplicate from 30 m: inhibit.
	j = s.NewJudge(h, rx(1, geom.Point{X: 400}))
	if j.Initial() != Proceed {
		t.Error("sender at 400m should proceed")
	}
	if j.OnDuplicate(rx(2, geom.Point{X: 30})) != Inhibit {
		t.Error("duplicate from 30m should inhibit")
	}
}

func TestDistanceKeepsMinimum(t *testing.T) {
	j := Distance{D: 100}.NewJudge(host(), rx(1, geom.Point{X: 400}))
	// Far duplicates never inhibit.
	for _, x := range []float64{450, 300, 200, 101} {
		if j.OnDuplicate(rx(2, geom.Point{X: x})) != Proceed {
			t.Fatalf("duplicate at %vm wrongly inhibited", x)
		}
	}
	if j.OnDuplicate(rx(3, geom.Point{X: 99})) != Inhibit {
		t.Error("duplicate below D did not inhibit")
	}
}

// --- Location ---

func TestLocationFirstReception(t *testing.T) {
	h := host()
	// Sender at distance r: additional coverage ~0.61 of the disk.
	j := Location{A: 0.5}.NewJudge(h, rx(1, geom.Point{X: 500}))
	if j.Initial() != Proceed {
		t.Error("0.61 coverage below threshold 0.5? should proceed")
	}
	// Co-located sender: zero additional coverage.
	j = Location{A: 0.01}.NewJudge(h, rx(1, geom.Point{X: 0}))
	if j.Initial() != Inhibit {
		t.Error("co-located sender leaves no additional coverage; should inhibit")
	}
}

func TestLocationAccumulatesSenders(t *testing.T) {
	h := host()
	// Threshold 0.187 (EAC2): one sender at 250m leaves ~0.37 uncovered,
	// proceed; surrounding senders eventually cover everything.
	j := Location{A: EAC2Fraction}.NewJudge(h, rx(1, geom.Point{X: 250}))
	if j.Initial() != Proceed {
		t.Fatal("single moderate-distance sender should proceed")
	}
	// Surrounding senders accumulate coverage; within these three
	// duplicates the uncovered fraction must fall below the threshold.
	inhibited := false
	for i, p := range []geom.Point{{X: -250}, {Y: 250}, {Y: -250}} {
		if j.OnDuplicate(rx(packet.NodeID(i+2), p)) == Inhibit {
			inhibited = true
			break
		}
	}
	if !inhibited {
		t.Error("surrounding senders never drove coverage below EAC2 threshold")
	}
}

func TestLocationZeroThresholdNeverInhibits(t *testing.T) {
	h := host()
	j := Location{A: 0}.NewJudge(h, rx(1, geom.Point{X: 1}))
	if j.Initial() != Proceed {
		t.Error("A=0 must force rebroadcast for any positive coverage... ")
	}
}

// TestLocationJudgeAllocations holds a location judgement that hears up
// to four senders to no heap object: the judge is a value, the default
// A(n) is a package value, not a closure built per packet, the first four
// sender positions live inside the judge, and the coverage state comes
// from the host's pool and goes back to it on release.
func TestLocationJudgeAllocations(t *testing.T) {
	h := host(1, 2, 3, 4, 5, 6, 7, 8)
	first := rx(1, geom.Point{X: 250})
	dups := []Reception{rx(2, geom.Point{X: -250}), rx(3, geom.Point{Y: 250}), rx(4, geom.Point{Y: -250})}
	for _, s := range []Scheme{Location{A: 0.0469}, AdaptiveLocation{}} {
		var sink Action
		allocs := testing.AllocsPerRun(200, func() {
			j := s.NewJudge(h, first)
			sink = j.Initial()
			for _, d := range dups {
				sink = j.OnDuplicate(d)
			}
			ReleaseJudge(j)
		})
		_ = sink
		if allocs != 0 {
			t.Errorf("%s: NewJudge + Initial + 3 OnDuplicate + ReleaseJudge = %v allocations, want 0", s.Name(), allocs)
		}
	}
	if len(h.covFree) != 1 {
		t.Errorf("the pool holds %d coverage states after sequential judgements, want 1", len(h.covFree))
	}
}

// TestLocationJudgeLifecycle runs one sender sequence through three
// location judges — uninterrupted on a fresh coverage state, restored
// from a checkpoint after every possible prefix, and built on a state
// another judge used and released — and requires the same verdicts from
// all three. The thresholds sit exactly at, and one float above, every
// uncovered fraction the sequence passes through, so a judge whose
// estimate is off by one sample answers differently somewhere.
func TestLocationJudgeLifecycle(t *testing.T) {
	senders := []geom.Point{
		{X: 310, Y: 40}, {X: -220, Y: 150}, {X: 30, Y: -400}, {X: 90, Y: 260},
		{X: -350, Y: -260}, {X: 480, Y: -60}, {X: -60, Y: 470}, {X: 5, Y: 5},
	}
	rxs := make([]Reception, len(senders))
	for i, p := range senders {
		rxs[i] = rx(packet.NodeID(i+1), p)
	}
	var thresholds []float64
	for k := 1; k <= len(senders); k++ {
		f := geom.AdditionalCoverageFraction(senders[0].Dist(geom.Point{}), 500)
		if k > 1 {
			f = geom.UncoveredFraction(geom.Point{}, senders[:k], 500, CoverageResolution)
		}
		thresholds = append(thresholds, f, math.Nextafter(f, 2))
	}
	// run feeds from to j, or to a fresh judge built on from[0] when j
	// is nil.
	run := func(h *fakeHost, th float64, from []Reception, j *Judge) []Action {
		var out []Action
		if j == nil {
			fresh := Location{A: th}.NewJudge(h, from[0])
			j = &fresh
			out = append(out, j.Initial())
			from = from[1:]
		}
		for _, r := range from {
			out = append(out, j.OnDuplicate(r))
		}
		ReleaseJudge(*j)
		return out
	}
	for i, th := range thresholds {
		want := run(host(), th, rxs, nil)
		// At a threshold equal to the k-th fraction the k-th verdict
		// proceeds; one float above it, it inhibits.
		if k, at := i/2, want[i/2]; (i%2 == 0) != (at == Proceed) {
			t.Fatalf("A=%v: verdict %v after %d senders, the one-shot estimate is %v", th, at, k+1, thresholds[2*k])
		}

		for m := 1; m < len(rxs); m++ {
			h := host()
			j := Location{A: th}.NewJudge(h, rxs[0])
			got := []Action{j.Initial()}
			for _, r := range rxs[1:m] {
				got = append(got, j.OnDuplicate(r))
			}
			st := SnapshotJudge(&j)
			ReleaseJudge(j)
			restored, err := RestoreJudge(st, h)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, run(h, th, rxs[m:], &restored)...)
			if !slices.Equal(got, want) {
				t.Fatalf("A=%v restored after %d senders: %v, uninterrupted %v", th, m, got, want)
			}
		}

		// The recycled state last described another host's disk, at
		// other senders.
		h := host()
		h.pos = geom.Point{X: 130, Y: -70}
		other := Location{A: th}.NewJudge(h, rx(1, geom.Point{X: 400, Y: 20}))
		other.Initial()
		for _, p := range []geom.Point{{X: -200, Y: 300}, {X: 300, Y: -400}, {X: 90}} {
			other.OnDuplicate(rx(2, p))
		}
		ReleaseJudge(other)
		h.pos = geom.Point{}
		if len(h.covFree) != 1 {
			t.Fatalf("the pool holds %d states after one released judge, want 1", len(h.covFree))
		}
		if got := run(h, th, rxs, nil); !slices.Equal(got, want) {
			t.Fatalf("A=%v on a recycled state: %v, uninterrupted %v", th, got, want)
		}
	}
}

// TestLocationJudgeOutgrowsInlineSenders hears more senders than the
// judge stores inline and checks none is lost: the checkpointed state
// lists all of them in order, a copy of the judge decides as the
// original does once the original's storage is overwritten, and a judge
// restored from the state decides the next duplicate as the original
// does.
func TestLocationJudgeOutgrowsInlineSenders(t *testing.T) {
	h := host()
	j := Location{A: 0.01}.NewJudge(h, rx(1, geom.Point{X: 480}))
	want := []geom.Point{{X: 480}}
	for i := 0; i < 6; i++ {
		p := geom.Point{X: 470 - float64(i), Y: float64(3 * i)}
		j.OnDuplicate(rx(packet.NodeID(i+2), p))
		want = append(want, p)
	}
	st := SnapshotJudge(&j)
	if !slices.Equal(st.Senders, want) {
		t.Fatalf("checkpointed senders %v, want %v", st.Senders, want)
	}
	restored, err := RestoreJudge(st, h)
	if err != nil {
		t.Fatal(err)
	}
	moved := j
	j = Location{A: 0.01}.NewJudge(h, rx(1, geom.Point{X: 1}))
	if got := SnapshotJudge(&moved).Senders; !slices.Equal(got, want) {
		t.Fatalf("a copied judge holds senders %v once the original is overwritten, want %v", got, want)
	}
	next := rx(9, geom.Point{X: -100, Y: 300})
	if got, want := restored.OnDuplicate(next), moved.OnDuplicate(next); got != want {
		t.Errorf("restored judge decided %v, original %v", got, want)
	}
	if a := SnapshotJudge(&restored); !slices.Equal(a.Senders, append(want, next.SenderPos)) {
		t.Errorf("restored judge holds senders %v", a.Senders)
	}
}

// --- Threshold functions ---

func TestCounterTableLookup(t *testing.T) {
	fn := CounterTable(2, 3, 4, 5)
	cases := map[int]int{-1: 2, 0: 2, 1: 2, 2: 3, 3: 4, 4: 5, 5: 5, 100: 5}
	for n, want := range cases {
		if got := fn(n); got != want {
			t.Errorf("C(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCounterTableEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty counter table did not panic")
		}
	}()
	CounterTable()
}

func TestDefaultCounterFuncShape(t *testing.T) {
	fn := DefaultCounterFunc()
	// Paper shape: C(n) = n+1 for n <= 4.
	for n := 1; n <= 4; n++ {
		if fn(n) != n+1 {
			t.Errorf("C(%d) = %d, want %d (paper: n+1 before n1=4)", n, fn(n), n+1)
		}
	}
	// Monotone non-increasing after the peak.
	for n := 4; n < 20; n++ {
		if fn(n+1) > fn(n) {
			t.Errorf("C not non-increasing at n=%d: %d -> %d", n, fn(n), fn(n+1))
		}
	}
	// Floor of 2 from n2 = 12 onwards.
	for n := 12; n < 30; n++ {
		if fn(n) != 2 {
			t.Errorf("C(%d) = %d, want floor 2", n, fn(n))
		}
	}
}

func TestLinearCounterFunc(t *testing.T) {
	fn := LinearCounterFunc(4, 12)
	if fn(4) != 5 || fn(12) != 2 || fn(20) != 2 || fn(1) != 2 {
		t.Errorf("knee values wrong: C(4)=%d C(12)=%d C(20)=%d C(1)=%d",
			fn(4), fn(12), fn(20), fn(1))
	}
	for n := 4; n < 12; n++ {
		if fn(n+1) > fn(n) {
			t.Errorf("descent not monotone at %d", n)
		}
	}
	if fn(0) != 2 {
		t.Errorf("C(0) = %d, want 2", fn(0))
	}
}

func TestLinearCounterFuncValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid knees did not panic")
		}
	}()
	LinearCounterFunc(5, 5)
}

func TestLinearLocationFunc(t *testing.T) {
	fn := LinearLocationFunc(6, 12, EAC2Fraction)
	for n := 0; n <= 6; n++ {
		if fn(n) != 0 {
			t.Errorf("A(%d) = %v, want 0 (forced rebroadcast zone)", n, fn(n))
		}
	}
	if got := fn(12); got != EAC2Fraction {
		t.Errorf("A(12) = %v, want %v", got, EAC2Fraction)
	}
	if got := fn(9); math.Abs(got-EAC2Fraction/2) > 1e-12 {
		t.Errorf("A(9) = %v, want midpoint %v", got, EAC2Fraction/2)
	}
	if got := fn(100); got != EAC2Fraction {
		t.Errorf("A(100) = %v, want ceiling", got)
	}
	// Monotone non-decreasing everywhere.
	prev := -1.0
	for n := 0; n < 30; n++ {
		if fn(n) < prev {
			t.Errorf("A not monotone at %d", n)
		}
		prev = fn(n)
	}
}

func TestLinearLocationFuncValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid knees did not panic")
		}
	}()
	LinearLocationFunc(6, 6, 0.1)
}

// --- Adaptive counter ---

func TestAdaptiveCounterUsesNeighborCount(t *testing.T) {
	s := AdaptiveCounter{} // default C(n)
	// Sparse host (1 neighbor): C(1) = 2 -> inhibit on first duplicate.
	sparse := host(1)
	j := s.NewJudge(sparse, rx(1, geom.Point{}))
	if j.Initial() != Proceed {
		t.Fatal("sparse host inhibited immediately")
	}
	if j.OnDuplicate(rx(2, geom.Point{})) != Inhibit {
		t.Error("C(1)=2: first duplicate should inhibit")
	}

	// Host with 4 neighbors: C(4) = 5 -> tolerate 3 duplicates.
	mid := host(1, 2, 3, 4)
	j = s.NewJudge(mid, rx(1, geom.Point{}))
	for k := 0; k < 3; k++ {
		if j.OnDuplicate(rx(2, geom.Point{})) != Proceed {
			t.Fatalf("C(4)=5: duplicate %d wrongly inhibited", k+1)
		}
	}
	if j.OnDuplicate(rx(2, geom.Point{})) != Inhibit {
		t.Error("C(4)=5: 5th hearing should inhibit")
	}

	// Dense host (15 neighbors): C = 2.
	dense := host(make([]packet.NodeID, 15)...)
	j = s.NewJudge(dense, rx(1, geom.Point{}))
	if j.OnDuplicate(rx(2, geom.Point{})) != Inhibit {
		t.Error("dense host should use floor threshold 2")
	}
}

func TestAdaptiveCounterCustomFunctionAndLabel(t *testing.T) {
	s := AdaptiveCounter{C: CounterTable(9), Label: "AC-slope13"}
	if s.Name() != "AC-slope13" {
		t.Errorf("label not used: %s", s.Name())
	}
	if (AdaptiveCounter{}).Name() != "AC" {
		t.Error("default name wrong")
	}
	j := s.NewJudge(host(1), rx(1, geom.Point{}))
	for k := 0; k < 7; k++ {
		if j.OnDuplicate(rx(2, geom.Point{})) != Proceed {
			t.Fatal("custom C=9 inhibited early")
		}
	}
	if !s.NeedsHello() {
		t.Error("adaptive counter requires HELLO")
	}
	if s.NeedsPosition() {
		t.Error("adaptive counter must not require GPS")
	}
}

// --- Adaptive location ---

func TestAdaptiveLocationForcedRebroadcastWhenSparse(t *testing.T) {
	s := AdaptiveLocation{}
	sparse := host(1, 2) // n=2 <= n1=6 -> A(n)=0 -> always rebroadcast
	// Even a co-located sender (zero additional coverage) cannot inhibit,
	// because coverage < 0 never holds with threshold 0.
	j := s.NewJudge(sparse, rx(1, geom.Point{}))
	if j.Initial() != Inhibit {
		// Zero coverage vs zero threshold: 0 < 0 is false -> Proceed.
		t.Log("forced rebroadcast holds even with zero coverage")
	}
	j = s.NewJudge(sparse, rx(1, geom.Point{X: 10}))
	if j.Initial() != Proceed {
		t.Error("sparse host should be forced to rebroadcast")
	}
	for i := 0; i < 8; i++ {
		if j.OnDuplicate(rx(2, geom.Point{Y: float64(10 * i)})) != Proceed {
			t.Error("sparse host inhibited despite A(n)=0")
		}
	}
}

func TestAdaptiveLocationDenseUsesCeiling(t *testing.T) {
	s := AdaptiveLocation{}
	dense := host(make([]packet.NodeID, 20)...) // n=20 -> A = 0.187
	// Sender at 250 m: coverage ~0.37 > 0.187: proceed.
	j := s.NewJudge(dense, rx(1, geom.Point{X: 250}))
	if j.Initial() != Proceed {
		t.Error("single sender at 250m should still proceed at dense ceiling")
	}
	// Sender at 60 m: coverage ~0.12 < 0.187: inhibit at once.
	j = s.NewJudge(dense, rx(1, geom.Point{X: 60}))
	if j.Initial() != Inhibit {
		t.Error("close sender should inhibit dense host immediately")
	}
	if !s.NeedsPosition() || !s.NeedsHello() {
		t.Error("adaptive location needs both GPS and HELLO")
	}
}

// --- Neighbor coverage ---

func TestNeighborCoverageInhibitsWhenSenderCoversAll(t *testing.T) {
	h := host(1, 2, 3)
	h.twoHop[1] = []packet.NodeID{2, 3}
	j := NeighborCoverage{}.NewJudge(h, rx(1, geom.Point{}))
	if j.Initial() != Inhibit {
		t.Error("sender covering all neighbors should inhibit at S1")
	}
}

func TestNeighborCoverageProceedsWithPendingNeighbors(t *testing.T) {
	h := host(1, 2, 3, 4)
	h.twoHop[1] = []packet.NodeID{2}
	j := NeighborCoverage{}.NewJudge(h, rx(1, geom.Point{}))
	// T = {2,3,4} - {2} - {1} = {3,4}.
	if j.Initial() != Proceed {
		t.Fatal("pending neighbors remain; should proceed")
	}
	// Duplicate from 3, covering 4: T empties.
	h.twoHop[3] = []packet.NodeID{4}
	if j.OnDuplicate(rx(3, geom.Point{})) != Inhibit {
		t.Error("T emptied; should inhibit")
	}
}

func TestNeighborCoverageUnknownSender(t *testing.T) {
	// Hearing from a host absent from the neighbor table: only that host
	// is subtracted (its coverage is unknown).
	h := host(2, 3)
	j := NeighborCoverage{}.NewJudge(h, rx(99, geom.Point{}))
	if j.Initial() != Proceed {
		t.Error("unknown sender cannot cover our neighborhood")
	}
}

func TestNeighborCoverageNoNeighbors(t *testing.T) {
	h := host()
	j := NeighborCoverage{}.NewJudge(h, rx(1, geom.Point{}))
	if j.Initial() != Inhibit {
		t.Error("host with no known neighbors has nothing to cover; inhibit")
	}
}

func TestNeighborCoverageDuplicatesShrinkMonotonically(t *testing.T) {
	h := host(1, 2, 3, 4, 5, 6)
	nc := NeighborCoverage{}
	j := nc.NewJudge(h, rx(1, geom.Point{}))
	sizes := []int{j.pending.Count()}
	for _, from := range []packet.NodeID{2, 3, 4} {
		j.OnDuplicate(rx(from, geom.Point{}))
		sizes = append(sizes, j.pending.Count())
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Fatalf("pending set grew: %v", sizes)
		}
	}
	if nc.NeedsPosition() {
		t.Error("NC must not require GPS (its selling point)")
	}
	if !nc.NeedsHello() {
		t.Error("NC requires HELLO")
	}
}

// --- Misc ---

func TestSchemeNames(t *testing.T) {
	cases := map[string]Scheme{
		"flooding": Flooding{},
		"C=2":      Counter{C: 2},
		"D=40":     Distance{D: 40},
		"A=0.1871": Location{A: 0.1871},
		"AC":       AdaptiveCounter{},
		"AL":       AdaptiveLocation{},
		"NC":       NeighborCoverage{},
	}
	for want, s := range cases {
		if got := s.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
	if (AdaptiveLocation{Label: "AL(6,12)"}).Name() != "AL(6,12)" {
		t.Error("AL label override failed")
	}
	if (NeighborCoverage{Label: "NC-DHI"}).Name() != "NC-DHI" {
		t.Error("NC label override failed")
	}
}

func TestActionString(t *testing.T) {
	if Proceed.String() != "proceed" || Inhibit.String() != "inhibit" {
		t.Error("action names wrong")
	}
}
