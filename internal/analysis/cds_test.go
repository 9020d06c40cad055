package analysis

import (
	"testing"

	"repro/internal/geom"
)

const radius = 500.0

// verifyCDS checks that cds dominates and is connected within src's
// component.
func verifyCDS(t *testing.T, adj [][]int, src int, cds []int) {
	t.Helper()
	comp := Component(adj, src)
	inCDS := make(map[int]bool, len(cds))
	for _, v := range cds {
		inCDS[v] = true
	}
	if !inCDS[src] {
		t.Error("CDS does not contain the source")
	}
	// Domination.
	for _, v := range comp {
		if inCDS[v] {
			continue
		}
		dominated := false
		for _, w := range adj[v] {
			if inCDS[w] {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("vertex %d not dominated", v)
		}
	}
	// Connectivity of the CDS subgraph.
	if len(cds) > 0 {
		seen := map[int]bool{cds[0]: true}
		stack := []int{cds[0]}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if inCDS[w] && !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		if len(seen) != len(cds) {
			t.Errorf("CDS not connected: reached %d of %d", len(seen), len(cds))
		}
	}
}

func chainPoints(n int, gap float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * gap}
	}
	return pts
}

func TestCDSOnChain(t *testing.T) {
	// 7-host chain at 450 m spacing: optimal CDS is the 5 interior hosts
	// (plus the source if it is an endpoint).
	pts := chainPoints(7, 450)
	adj := UnitDiskAdjacency(pts, radius)
	for _, construct := range []func([][]int, int) []int{BFSTreeCDS, GreedyCDS} {
		cds := construct(adj, 0)
		verifyCDS(t, adj, 0, cds)
		if len(cds) > 6 {
			t.Errorf("chain CDS size %d, expected <= 6", len(cds))
		}
	}
}

func TestCDSOnClique(t *testing.T) {
	// All hosts within range: {src} dominates.
	pts := []geom.Point{{X: 0}, {X: 100}, {X: 200}, {Y: 100}, {Y: 200}}
	adj := UnitDiskAdjacency(pts, radius)
	cds := GreedyCDS(adj, 2)
	verifyCDS(t, adj, 2, cds)
	if len(cds) != 1 {
		t.Errorf("clique CDS = %v, want just the source", cds)
	}
}

func TestCDSOnStar(t *testing.T) {
	// Center at origin, 5 leaves at 450 m in different directions, leaves
	// out of range of each other: CDS from a leaf = {leaf, center}.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 450}, {X: -450}, {Y: 450}, {Y: -450}}
	adj := UnitDiskAdjacency(pts, radius)
	cds := GreedyCDS(adj, 1)
	verifyCDS(t, adj, 1, cds)
	if len(cds) != 2 {
		t.Errorf("star CDS from leaf = %v, want size 2", cds)
	}
}

func TestCDSIsolatedVertex(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 5000}}
	adj := UnitDiskAdjacency(pts, radius)
	cds := GreedyCDS(adj, 0)
	if len(cds) != 1 || cds[0] != 0 {
		t.Errorf("isolated CDS = %v", cds)
	}
	if got := AchievableSRB(pts, radius, 0); got != 0 {
		t.Errorf("isolated achievable SRB = %v, want 0", got)
	}
}

func TestCDSRandomTopologies(t *testing.T) {
	// Property: both constructions always produce valid CDSs on random
	// topologies, and greedy is never larger than 2x BFS-tree.
	rng := newTestRNG(7)
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.IntN(40)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{
				X: rng.UniformFloat(0, 3000),
				Y: rng.UniformFloat(0, 3000),
			}
		}
		adj := UnitDiskAdjacency(pts, radius)
		src := rng.IntN(n)
		bfs := BFSTreeCDS(adj, src)
		greedy := GreedyCDS(adj, src)
		verifyCDS(t, adj, src, bfs)
		verifyCDS(t, adj, src, greedy)
		if len(greedy) > 2*len(bfs)+1 {
			t.Errorf("greedy CDS %d wildly larger than BFS %d", len(greedy), len(bfs))
		}
	}
}

func TestAchievableSRBChain(t *testing.T) {
	// Chain of 10: component 10, best CDS ~9 (interior + endpoint src)
	// so the saving is small — chains admit almost none.
	pts := chainPoints(10, 450)
	got := AchievableSRB(pts, radius, 0)
	if got > 0.2 {
		t.Errorf("chain achievable SRB = %v, chains cannot save much", got)
	}
	// Clique of 10: everyone but the source can stay silent.
	clique := make([]geom.Point, 10)
	for i := range clique {
		clique[i] = geom.Point{X: float64(i) * 10}
	}
	got = AchievableSRB(clique, radius, 0)
	if got < 0.89 {
		t.Errorf("clique achievable SRB = %v, want 0.9", got)
	}
}
