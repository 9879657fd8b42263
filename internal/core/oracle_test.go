package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
)

// oracleCase is one randomized graph of the cross-check suite.
type oracleCase struct {
	name string
	g    *graph.Graph
}

// oracleSuite builds the ~50-graph randomized suite: random-regular,
// Erdős–Rényi, random trees, and weighted variants of all three.
func oracleSuite(t *testing.T) []oracleCase {
	t.Helper()
	var cases []oracleCase
	add := func(name string, g *graph.Graph) {
		cases = append(cases, oracleCase{name: name, g: g})
	}
	// Random-regular graphs (configuration model; n*d even).
	for i := 0; i < 8; i++ {
		n := 10 + 2*(i%4)
		g, err := graph.RandomRegular(n, 3, int64(i))
		if err != nil {
			t.Fatalf("RandomRegular(%d, 3, %d): %v", n, i, err)
		}
		add(fmt.Sprintf("regular/n=%d/seed=%d", n, i), g)
	}
	// Erdős–Rényi (connected) graphs across densities.
	for i := 0; i < 12; i++ {
		n := 11 + i
		p := 0.08 + 0.02*float64(i%5)
		add(fmt.Sprintf("er/n=%d/seed=%d", n, i), graph.RandomConnected(n, p, int64(100+i)))
	}
	// Random trees (largest diameters, exercise the D-dependent schedules).
	for i := 0; i < 10; i++ {
		n := 9 + i
		add(fmt.Sprintf("tree/n=%d/seed=%d", n, i), graph.RandomTree(n, int64(200+i)))
	}
	// Weighted variants: random weights in [1, maxW], including maxW = 1
	// (weighted representation, unweighted metric).
	for i := 0; i < 7; i++ {
		n := 10 + i
		maxW := []int{1, 5, 9}[i%3]
		base := graph.RandomConnected(n, 0.14, int64(300+i))
		add(fmt.Sprintf("er-weighted/n=%d/w=%d/seed=%d", n, maxW, i), graph.WithWeights(base, maxW, int64(400+i)))
	}
	for i := 0; i < 7; i++ {
		n := 9 + i
		base := graph.RandomTree(n, int64(500+i))
		add(fmt.Sprintf("tree-weighted/n=%d/seed=%d", n, i), graph.WithWeights(base, 7, int64(600+i)))
	}
	for i := 0; i < 6; i++ {
		n := 10 + 2*(i%3)
		base, err := graph.RandomRegular(n, 3, int64(700+i))
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("regular-weighted/n=%d/seed=%d", n, i), graph.WithWeights(base, 6, int64(800+i)))
	}
	return cases
}

// suiteRun is one full distance-parameter computation under one engine
// configuration; the Result structs (not just the values) are compared
// across configurations, so a divergence in any measured field fails.
type suiteRun struct {
	Diam  Result
	Rad   Result
	Ecc   EccResult
	Exact Result // Theorem 1 windowed algorithm; unweighted graphs only
}

func runSuite(t *testing.T, c oracleCase, parallel int) suiteRun {
	t.Helper()
	opts := Options{
		Seed:     42,
		Parallel: parallel,
		Engine:   []congest.Option{congest.WithStrictAccounting()},
	}
	var out suiteRun
	var err error
	if c.g.Weighted() {
		out.Diam, err = WeightedDiameter(c.g, opts)
	} else {
		out.Diam, err = ExactDiameterSimple(c.g, opts)
	}
	if err != nil {
		t.Fatalf("%s: diameter: %v", c.name, err)
	}
	if out.Rad, err = Radius(c.g, opts); err != nil {
		t.Fatalf("%s: radius: %v", c.name, err)
	}
	if out.Ecc, err = Eccentricities(c.g, opts); err != nil {
		t.Fatalf("%s: eccentricities: %v", c.name, err)
	}
	if !c.g.Weighted() {
		if out.Exact, err = ExactDiameter(c.g, opts); err != nil {
			t.Fatalf("%s: exact diameter: %v", c.name, err)
		}
	}
	return out
}

// TestSuiteTrivialInstances pins the documented n <= 2 conventions of every
// suite entry point: no quantum phase runs, diameter/radius are 0 for fewer
// than two vertices, and the two-vertex parameters equal the edge weight.
func TestSuiteTrivialInstances(t *testing.T) {
	single := graph.New(1)
	pair := graph.New(2)
	pair.MustAddWeightedEdge(0, 1, 4)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		diam int
		rad  int
		ecc  []int
	}{
		{"empty", graph.New(0), 0, 0, []int{}},
		{"single", single, 0, 0, []int{0}},
		{"edge-weight-4", pair, 4, 4, []int{4, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := WeightedDiameter(tc.g, Options{})
			if err != nil || d.Diameter != tc.diam {
				t.Fatalf("WeightedDiameter = %d, %v, want %d", d.Diameter, err, tc.diam)
			}
			r, err := Radius(tc.g, Options{})
			if err != nil || r.Diameter != tc.rad {
				t.Fatalf("Radius = %d, %v, want %d", r.Diameter, err, tc.rad)
			}
			wr, err := WeightedRadius(tc.g, Options{})
			if err != nil || wr.Diameter != tc.rad {
				t.Fatalf("WeightedRadius = %d, %v, want %d", wr.Diameter, err, tc.rad)
			}
			e, err := Eccentricities(tc.g, Options{})
			if err != nil || !reflect.DeepEqual(e.Ecc, tc.ecc) {
				t.Fatalf("Eccentricities = %v, %v, want %v", e.Ecc, err, tc.ecc)
			}
		})
	}
}

// TestSuiteDisconnectedPair pins the one disconnected case the topology
// validation never sees: two isolated vertices must return ErrDisconnected
// from every suite entry point, not a bogus value (regression: the trivial
// handlers used to skip the check).
func TestSuiteDisconnectedPair(t *testing.T) {
	g := graph.New(2)
	if _, err := ExactDiameter(g, Options{}); !errors.Is(err, graph.ErrDisconnected) {
		t.Errorf("ExactDiameter: %v, want ErrDisconnected", err)
	}
	if _, err := Radius(g, Options{}); !errors.Is(err, graph.ErrDisconnected) {
		t.Errorf("Radius: %v, want ErrDisconnected", err)
	}
	if _, err := WeightedDiameter(g, Options{}); !errors.Is(err, graph.ErrDisconnected) {
		t.Errorf("WeightedDiameter: %v, want ErrDisconnected", err)
	}
	if _, err := WeightedRadius(g, Options{}); !errors.Is(err, graph.ErrDisconnected) {
		t.Errorf("WeightedRadius: %v, want ErrDisconnected", err)
	}
	if _, err := Eccentricities(g, Options{}); !errors.Is(err, graph.ErrDisconnected) {
		t.Errorf("Eccentricities: %v, want ErrDisconnected", err)
	}
}

// TestQuantumSuiteMatchesClassicalOracle is the randomized oracle
// cross-check: on every graph of the suite the quantum
// diameter/radius/eccentricities must equal the sequential oracles (BFS per
// vertex for hop parameters; Dijkstra AND the code-independent
// Floyd–Warshall for weighted ones), and the full Result structs must be
// bit-identical across worker counts {1, 2, 8} and sequential-vs-Parallel
// sessions.
func TestQuantumSuiteMatchesClassicalOracle(t *testing.T) {
	for _, c := range oracleSuite(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			g := c.g

			// Classical oracles.
			var wantDiam, wantRad int
			var wantEcc []int
			var err error
			if g.Weighted() {
				if wantDiam, err = g.WeightedDiameter(); err != nil {
					t.Fatal(err)
				}
				if wantRad, err = g.WeightedRadius(); err != nil {
					t.Fatal(err)
				}
				if wantEcc, err = g.WeightedAllEccentricities(); err != nil {
					t.Fatal(err)
				}
				// The Dijkstra-based parameters must agree with the
				// code-independent Floyd–Warshall matrix.
				mat, err := g.FloydWarshall()
				if err != nil {
					t.Fatal(err)
				}
				fwDiam := 0
				for _, row := range mat {
					for _, d := range row {
						if d > fwDiam {
							fwDiam = d
						}
					}
				}
				if fwDiam != wantDiam {
					t.Fatalf("oracle disagreement: Dijkstra diameter %d, Floyd–Warshall %d", wantDiam, fwDiam)
				}
			} else {
				if wantDiam, err = g.Diameter(); err != nil {
					t.Fatal(err)
				}
				if wantRad, err = g.Radius(); err != nil {
					t.Fatal(err)
				}
				if wantEcc, err = g.AllEccentricities(); err != nil {
					t.Fatal(err)
				}
			}

			// Baseline configuration: sequential sessions.
			base := runSuite(t, c, 1)
			if base.Diam.Diameter != wantDiam {
				t.Fatalf("quantum diameter %d, oracle %d", base.Diam.Diameter, wantDiam)
			}
			if base.Rad.Diameter != wantRad {
				t.Fatalf("quantum radius %d, oracle %d", base.Rad.Diameter, wantRad)
			}
			if !reflect.DeepEqual(base.Ecc.Ecc, wantEcc) {
				t.Fatalf("quantum eccentricities %v, oracle %v", base.Ecc.Ecc, wantEcc)
			}
			if !g.Weighted() && base.Exact.Diameter != wantDiam {
				t.Fatalf("Theorem 1 diameter %d, oracle %d", base.Exact.Diameter, wantDiam)
			}

			// Parallel (batched sessions) must reproduce the baseline bit
			// for bit.
			if got := runSuite(t, c, 4); !reflect.DeepEqual(got, base) {
				t.Fatalf("parallel=4 diverges from baseline:\n got %+v\nwant %+v", got, base)
			}
		})
	}
}
