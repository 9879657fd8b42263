package graph

import (
	"math"
	"runtime"
	"testing"
)

// TestGeneratorsDegenerateInputs drives every generator through the
// degenerate corners (n = 0, n = 1, a single edge, below-minimum dims) and
// asserts the documented conventions instead of relying on implicit zero
// values: no generator panics, and Diameter/Radius of graphs with fewer than
// two vertices are 0.
func TestGeneratorsDegenerateInputs(t *testing.T) {
	cases := []struct {
		name      string
		build     func() *Graph
		wantN     int
		wantM     int
		wantDiam  int
		wantRad   int
		connected bool
	}{
		{"path/0", func() *Graph { return Path(0) }, 0, 0, 0, 0, true},
		{"path/1", func() *Graph { return Path(1) }, 1, 0, 0, 0, true},
		{"path/2", func() *Graph { return Path(2) }, 2, 1, 1, 1, true},
		{"cycle/1", func() *Graph { return Cycle(1) }, 1, 0, 0, 0, true},
		{"cycle/2", func() *Graph { return Cycle(2) }, 2, 1, 1, 1, true},
		{"cycle/3", func() *Graph { return Cycle(3) }, 3, 3, 1, 1, true},
		{"star/0", func() *Graph { return Star(0) }, 0, 0, 0, 0, true},
		{"star/1", func() *Graph { return Star(1) }, 1, 0, 0, 0, true},
		{"star/2", func() *Graph { return Star(2) }, 2, 1, 1, 1, true},
		{"complete/0", func() *Graph { return Complete(0) }, 0, 0, 0, 0, true},
		{"complete/1", func() *Graph { return Complete(1) }, 1, 0, 0, 0, true},
		{"complete/2", func() *Graph { return Complete(2) }, 2, 1, 1, 1, true},
		{"grid/0x5", func() *Graph { return Grid(0, 5) }, 0, 0, 0, 0, true},
		{"grid/1x1", func() *Graph { return Grid(1, 1) }, 1, 0, 0, 0, true},
		{"grid/1x2", func() *Graph { return Grid(1, 2) }, 2, 1, 1, 1, true},
		// Torus below 3x3 used to panic on the duplicate wraparound edge;
		// now it degrades to the cylinder / cycle / path documented on the
		// generator.
		{"torus/1x1", func() *Graph { return Torus(1, 1) }, 1, 0, 0, 0, true},
		{"torus/1x2", func() *Graph { return Torus(1, 2) }, 2, 1, 1, 1, true},
		{"torus/2x2", func() *Graph { return Torus(2, 2) }, 4, 4, 2, 2, true},
		{"torus/1x4", func() *Graph { return Torus(1, 4) }, 4, 4, 2, 2, true},
		{"torus/2x3", func() *Graph { return Torus(2, 3) }, 6, 9, 2, 2, true},
		{"hypercube/0", func() *Graph { return mustGraph(Hypercube(0)) }, 1, 0, 0, 0, true},
		{"hypercube/1", func() *Graph { return mustGraph(Hypercube(1)) }, 2, 1, 1, 1, true},
		{"cbt/0", func() *Graph { return CompleteBinaryTree(0) }, 0, 0, 0, 0, true},
		{"cbt/1", func() *Graph { return CompleteBinaryTree(1) }, 1, 0, 0, 0, true},
		{"cbt/2", func() *Graph { return CompleteBinaryTree(2) }, 2, 1, 1, 1, true},
		// Barbell with cliqueSize < 1 clamps to 1 instead of panicking on a
		// self-loop.
		{"barbell/0x0", func() *Graph { return Barbell(0, 0) }, 2, 1, 1, 1, true},
		{"barbell/1x0", func() *Graph { return Barbell(1, 0) }, 2, 1, 1, 1, true},
		{"barbell/1x1", func() *Graph { return Barbell(1, 1) }, 3, 2, 2, 1, true},
		{"caterpillar/0x3", func() *Graph { return Caterpillar(0, 3) }, 0, 0, 0, 0, true},
		{"caterpillar/1x0", func() *Graph { return Caterpillar(1, 0) }, 1, 0, 0, 0, true},
		{"caterpillar/1x1", func() *Graph { return Caterpillar(1, 1) }, 2, 1, 1, 1, true},
		{"randomtree/0", func() *Graph { return RandomTree(0, 7) }, 0, 0, 0, 0, true},
		{"randomtree/1", func() *Graph { return RandomTree(1, 7) }, 1, 0, 0, 0, true},
		{"randomtree/2", func() *Graph { return RandomTree(2, 7) }, 2, 1, 1, 1, true},
		{"smallworld/1", func() *Graph { return SmallWorld(1, 2, 0.5, 3) }, 1, 0, 0, 0, true},
		{"smallworld/2", func() *Graph { return SmallWorld(2, 2, 0.5, 3) }, 2, 1, 1, 1, true},
		// Negative sizes clamp to 0, as New does, instead of panicking
		// (rand.Perm, an out-of-range chain edge) or multiplying two
		// negative dimensions into a positive vertex count.
		{"path/-3", func() *Graph { return Path(-3) }, 0, 0, 0, 0, true},
		{"grid/-1x-5", func() *Graph { return Grid(-1, -5) }, 0, 0, 0, 0, true},
		{"torus/-1x-5", func() *Graph { return Torus(-1, -5) }, 0, 0, 0, 0, true},
		{"barbell/3x-2", func() *Graph { return Barbell(3, -2) }, 6, 7, 3, 2, true},
		{"barbell/-1x-1", func() *Graph { return Barbell(-1, -1) }, 2, 1, 1, 1, true},
		{"caterpillar/2x-1", func() *Graph { return Caterpillar(2, -1) }, 2, 1, 1, 1, true},
		{"caterpillar/-2x-2", func() *Graph { return Caterpillar(-2, -2) }, 0, 0, 0, 0, true},
		{"randomconnected/-3", func() *Graph { return RandomConnected(-3, 0.5, 7) }, 0, 0, 0, 0, true},
		{"randomtree/-3", func() *Graph { return RandomTree(-3, 7) }, 0, 0, 0, 0, true},
		// A k below 1 clamps to the plain ring (plus chords) instead of
		// leaving only the random chords, which disconnect the graph.
		{"smallworld/5k-2", func() *Graph { return SmallWorld(5, -2, 0.5, 1) }, 5, 6, 2, 2, true},
		{"smallworld/5k0", func() *Graph { return SmallWorld(5, 0, 0.5, 1) }, 5, 6, 2, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			if g.N() != tc.wantN || g.M() != tc.wantM {
				t.Fatalf("n=%d m=%d, want n=%d m=%d", g.N(), g.M(), tc.wantN, tc.wantM)
			}
			if got := g.Connected(); got != tc.connected {
				t.Fatalf("Connected() = %v, want %v", got, tc.connected)
			}
			diam, err := g.Diameter()
			if err != nil || diam != tc.wantDiam {
				t.Fatalf("Diameter() = %d, %v, want %d", diam, err, tc.wantDiam)
			}
			rad, err := g.Radius()
			if err != nil || rad != tc.wantRad {
				t.Fatalf("Radius() = %d, %v, want %d", rad, err, tc.wantRad)
			}
			// Weighted parameters degenerate to the unweighted ones (all
			// weights are 1 on generator output).
			wd, err := g.WeightedDiameter()
			if err != nil || wd != tc.wantDiam {
				t.Fatalf("WeightedDiameter() = %d, %v, want %d", wd, err, tc.wantDiam)
			}
			wr, err := g.WeightedRadius()
			if err != nil || wr != tc.wantRad {
				t.Fatalf("WeightedRadius() = %d, %v, want %d", wr, err, tc.wantRad)
			}
			eccs, err := g.AllEccentricities()
			if err != nil || len(eccs) != tc.wantN {
				t.Fatalf("AllEccentricities() = %v, %v, want %d entries", eccs, err, tc.wantN)
			}
		})
	}
	// A negative dimension has no hypercube: an error, not a graph.
	t.Run("hypercube/-1", func(t *testing.T) {
		if g, err := Hypercube(-1); err == nil {
			t.Fatalf("Hypercube(-1) = %d vertices, want an error", g.N())
		}
	})
}

// mustGraph unwraps a generator result that the test knows is valid.
func mustGraph(g *Graph, err error) *Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// TestHypercubeDimensionBounds pins Hypercube's domain: dimensions 0..26,
// the largest whose 2^dim·dim directed edges fit the int32 CSR. Outside it
// the generator errors without building anything — 62 used to panic in
// make, and 63 and 64 overflowed 1 << dim into the empty graph.
func TestHypercubeDimensionBounds(t *testing.T) {
	if maxHypercubeDim*(1<<maxHypercubeDim) > 1<<31-1 || (maxHypercubeDim+1)*(1<<(maxHypercubeDim+1)) <= 1<<31-1 {
		t.Fatalf("maxHypercubeDim = %d is not the largest dimension whose edges fit int32", maxHypercubeDim)
	}
	for _, dim := range []int{-1, 27, 62, 63, 64} {
		// TotalAlloc is process-wide, so another goroutine's allocation
		// can land inside one measurement; it does not repeat in every
		// one, while the generator's own allocation would. Keep the
		// smallest of five deltas.
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			g, err := Hypercube(dim)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("Hypercube(%d) = %d vertices, want an error", dim, g.N())
			}
			if g != nil {
				t.Fatalf("Hypercube(%d) returned a graph beside its error", dim)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		// The error value is all that may be allocated.
		if least > 1024 {
			t.Errorf("Hypercube(%d) allocated %d bytes before failing", dim, least)
		}
	}
}

// TestSingleEdgeConventions pins the n=2 single-edge conventions explicitly:
// both endpoints have eccentricity 1, so diameter = radius = 1, weighted or
// not.
func TestSingleEdgeConventions(t *testing.T) {
	g := New(2)
	g.MustAddWeightedEdge(0, 1, 5)
	if !g.Weighted() {
		t.Fatal("graph with a weight-5 edge should report Weighted()")
	}
	if d, _ := g.Diameter(); d != 1 {
		t.Fatalf("hop diameter = %d, want 1", d)
	}
	if d, _ := g.WeightedDiameter(); d != 5 {
		t.Fatalf("weighted diameter = %d, want 5", d)
	}
	if r, _ := g.WeightedRadius(); r != 5 {
		t.Fatalf("weighted radius = %d, want 5", r)
	}
	eccs, err := g.WeightedAllEccentricities()
	if err != nil || len(eccs) != 2 || eccs[0] != 5 || eccs[1] != 5 {
		t.Fatalf("weighted eccentricities = %v, %v, want [5 5]", eccs, err)
	}
}

// TestTorusRegularSizesUnchanged guards the degenerate-input fix: for the
// documented rows, cols >= 3 regime the guarded edge insertion adds exactly
// the same edge set as before (2*rows*cols edges, 4-regular).
func TestTorusRegularSizesUnchanged(t *testing.T) {
	g := Torus(3, 4)
	if g.N() != 12 || g.M() != 24 {
		t.Fatalf("Torus(3,4): n=%d m=%d, want 12, 24", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("Torus(3,4): degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
}
