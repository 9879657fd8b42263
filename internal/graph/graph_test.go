package graph

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative endpoint accepted")
	}
	if err := g.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
	if g.M() != 1 {
		t.Errorf("M() = %d, want 1", g.M())
	}
}

func TestNeighborsSortedAndImmutableView(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 4)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(0, 1)
	nb := g.Neighbors(0)
	want := []int{1, 2, 4}
	if len(nb) != len(want) {
		t.Fatalf("neighbors = %v, want %v", nb, want)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", nb, want)
		}
	}
}

func TestAddVertex(t *testing.T) {
	g := New(2)
	v := g.AddVertex()
	if v != 2 || g.N() != 3 {
		t.Fatalf("AddVertex returned %d, N=%d; want 2, 3", v, g.N())
	}
	g.MustAddEdge(v, 0)
	if !g.HasEdge(2, 0) {
		t.Error("edge to new vertex missing")
	}
}

func TestBFSOnPath(t *testing.T) {
	g := Path(6)
	dist, parent := g.BFS(0)
	for v := 0; v < 6; v++ {
		if dist[v] != v {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], v)
		}
	}
	if parent[0] != -1 {
		t.Errorf("parent[src] = %d, want -1", parent[0])
	}
	for v := 1; v < 6; v++ {
		if parent[v] != v-1 {
			t.Errorf("parent[%d] = %d, want %d", v, parent[v], v-1)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	dist, _ := g.BFS(0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Errorf("unreachable vertices should have dist -1, got %v", dist)
	}
	if _, err := g.Eccentricity(0); err == nil {
		t.Error("Eccentricity on disconnected graph should error")
	}
	if _, err := g.Diameter(); err == nil {
		t.Error("Diameter on disconnected graph should error")
	}
	if _, err := g.DistanceMatrix(); err == nil {
		t.Error("DistanceMatrix on disconnected graph should error")
	}
}

func TestDiameterKnownFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path10", Path(10), 9},
		{"path2", Path(2), 1},
		{"single", Path(1), 0},
		{"empty", New(0), 0},
		{"cycle9", Cycle(9), 4},
		{"cycle10", Cycle(10), 5},
		{"star8", Star(8), 2},
		{"complete7", Complete(7), 1},
		{"grid4x5", Grid(4, 5), 7},
		{"torus5x5", Torus(5, 5), 4},
		{"hypercube4", mustGraph(Hypercube(4)), 4},
		{"binarytree15", CompleteBinaryTree(15), 6},
		{"barbell", Barbell(4, 3), 6},
		{"caterpillar", Caterpillar(5, 3), 6},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.g.Diameter()
			if err != nil {
				t.Fatalf("Diameter: %v", err)
			}
			if got != tc.want {
				t.Errorf("Diameter = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestRadiusPath(t *testing.T) {
	g := Path(9)
	r, err := g.Radius()
	if err != nil {
		t.Fatal(err)
	}
	if r != 4 {
		t.Errorf("Radius(P9) = %d, want 4", r)
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := RandomConnected(40, 0.05, seed)
		if !g.Connected() {
			t.Errorf("seed %d: graph not connected", seed)
		}
		if g.N() != 40 {
			t.Errorf("seed %d: n = %d", seed, g.N())
		}
	}
}

func TestRandomConnectedDeterministic(t *testing.T) {
	a := RandomConnected(30, 0.1, 7)
	b := RandomConnected(30, 0.1, 7)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestRandomTreeHasNMinus1Edges(t *testing.T) {
	g := RandomTree(25, 3)
	if g.M() != 24 {
		t.Errorf("tree edges = %d, want 24", g.M())
	}
	if !g.Connected() {
		t.Error("tree not connected")
	}
}

func TestSmallWorldConnected(t *testing.T) {
	g := SmallWorld(50, 2, 0.3, 11)
	if !g.Connected() {
		t.Error("small world not connected")
	}
	d, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if d >= 15 {
		t.Errorf("small-world diameter suspiciously large: %d", d)
	}
}

func TestLollipopWithDiameter(t *testing.T) {
	for _, tc := range []struct{ n, d int }{
		{10, 2}, {10, 5}, {10, 9}, {20, 3}, {20, 12}, {6, 1},
	} {
		g, err := LollipopWithDiameter(tc.n, tc.d)
		if err != nil {
			t.Fatalf("n=%d d=%d: %v", tc.n, tc.d, err)
		}
		got, err := g.Diameter()
		if err != nil {
			t.Fatalf("n=%d d=%d: %v", tc.n, tc.d, err)
		}
		if got != tc.d {
			t.Errorf("n=%d: diameter = %d, want %d", tc.n, got, tc.d)
		}
		if g.N() != tc.n {
			t.Errorf("n = %d, want %d", g.N(), tc.n)
		}
	}
	if _, err := LollipopWithDiameter(5, 5); err == nil {
		t.Error("infeasible parameters accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Path(4)
	c := g.Clone()
	c.MustAddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Error("mutating clone changed original")
	}
	if g.M() != 3 || c.M() != 4 {
		t.Errorf("edge counts: orig %d clone %d", g.M(), c.M())
	}
}

func TestEdgesList(t *testing.T) {
	g := Cycle(4)
	edges := g.Edges()
	want := [][2]int{{0, 1}, {0, 3}, {1, 2}, {2, 3}}
	if len(edges) != len(want) {
		t.Fatalf("edges = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edges = %v, want %v", edges, want)
		}
	}
}

// Property: for random connected graphs, diameter == max entry of the
// distance matrix, and eccentricities are consistent with the matrix.
func TestDiameterMatchesDistanceMatrix(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomConnected(20, 0.08, seed)
		mat, err := g.DistanceMatrix()
		if err != nil {
			return false
		}
		wantDiam := 0
		for u := range mat {
			for v := range mat[u] {
				if mat[u][v] > wantDiam {
					wantDiam = mat[u][v]
				}
			}
		}
		d, err := g.Diameter()
		if err != nil {
			return false
		}
		eccs, err := g.AllEccentricities()
		if err != nil {
			return false
		}
		maxEcc := 0
		for _, e := range eccs {
			if e > maxEcc {
				maxEcc = e
			}
		}
		return d == wantDiam && maxEcc == wantDiam
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the triangle inequality holds for all distances.
func TestTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomConnected(15, 0.1, seed)
		mat, err := g.DistanceMatrix()
		if err != nil {
			return false
		}
		n := g.N()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				for c := 0; c < n; c++ {
					if mat[a][c] > mat[a][b]+mat[b][c] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestDistance(t *testing.T) {
	g := Cycle(8)
	d, err := g.Distance(0, 4)
	if err != nil || d != 4 {
		t.Errorf("Distance(0,4) = %d,%v want 4,nil", d, err)
	}
	d, err = g.Distance(0, 7)
	if err != nil || d != 1 {
		t.Errorf("Distance(0,7) = %d,%v want 1,nil", d, err)
	}
}

// After construction, a graph must be safely readable from many goroutines
// at once — including the very first reads, which trigger the lazy
// adjacency sort (parallel experiment trials share one graph). Run with
// -race this is the regression test for the synchronized sort.
func TestConcurrentReadsAfterConstruction(t *testing.T) {
	g := RandomConnected(200, 0.03, 12)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !g.Connected() {
				t.Error("graph not connected")
			}
			dist, _ := g.BFS(0)
			if len(dist) != g.N() {
				t.Errorf("BFS returned %d distances", len(dist))
			}
			nb := g.Neighbors(5)
			for i := 1; i < len(nb); i++ {
				if nb[i-1] >= nb[i] {
					t.Error("neighbors not sorted")
					return
				}
			}
			// Clone and HasEdge read adjacency elements too; they must be
			// safe against a concurrent first-read sort.
			if c := g.Clone(); c.M() != g.M() {
				t.Errorf("clone has %d edges, want %d", c.M(), g.M())
			}
			for _, w := range nb {
				if !g.HasEdge(5, w) {
					t.Errorf("edge {5,%d} missing", w)
				}
			}
		}()
	}
	wg.Wait()
}
