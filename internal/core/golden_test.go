package core

// Golden-compatibility layer for the query-framework refactor: the seven
// suite entry points are pinned to the exact Result values the pre-refactor
// implementation produced on a fixed graph/seed matrix (captured at the PR-6
// boundary, before runOptimization moved onto internal/query). Every field —
// value, Rounds, InitRounds, SetupRounds, EvalRounds, Iterations, qubit
// counts — must match bit for bit, on sequential and Parallel sessions, so
// the port is provably behavior-preserving.

import (
	"reflect"
	"testing"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
)

type goldenGraph struct {
	name string
	g    *graph.Graph
}

// goldenGraphs is the fixed matrix: deterministic constructions only (the
// generators are seeded, so the graphs are stable across runs and refactors).
func goldenGraphs() []goldenGraph {
	tree := graph.RandomTree(13, 3)
	er := graph.RandomConnected(16, 0.15, 7)
	erw := graph.WithWeights(graph.RandomConnected(14, 0.2, 9), 6, 90)
	treew := graph.WithWeights(graph.RandomTree(11, 5), 4, 50)
	return []goldenGraph{
		{"path12", graph.Path(12)},
		{"er16", er},
		{"tree13", tree},
		{"grid4x4", graph.Grid(4, 4)},
		{"erw14", erw},
		{"treew11", treew},
	}
}

type goldenCase struct {
	graph string
	seed  int64
	entry string
	want  Result
}

type goldenEccCase struct {
	graph string
	seed  int64
	want  EccResult
}

// TestGoldenSuiteCompatibility replays the matrix through the refactored
// entry points, sequentially and on four evaluation contexts, and compares
// full Result structs to the pre-refactor captures.
func TestGoldenSuiteCompatibility(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	for _, gc := range goldenGraphs() {
		graphs[gc.name] = gc.g
	}
	// w1 names the one engine worker every network runs on; seq and par4
	// are one and four evaluation contexts.
	configs := []struct {
		name string
		par  int
	}{
		{"w1-seq", 1},
		{"w1-par4", 4},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			for _, tc := range goldenCases {
				g := graphs[tc.graph]
				opts := Options{Seed: tc.seed, Parallel: cfg.par, Engine: []congest.Option{congest.WithStrictAccounting()}}
				var got Result
				var err error
				switch tc.entry {
				case "simple":
					got, err = ExactDiameterSimple(g, opts)
				case "exact":
					got, err = ExactDiameter(g, opts)
				case "approx":
					got, err = ApproxDiameter(g, opts)
				case "radius":
					got, err = Radius(g, opts)
				case "wdiam":
					got, err = WeightedDiameter(g, opts)
				case "wradius":
					got, err = WeightedRadius(g, opts)
				default:
					t.Fatalf("unknown entry %q", tc.entry)
				}
				if err != nil {
					t.Fatalf("%s/%s/seed=%d: %v", tc.graph, tc.entry, tc.seed, err)
				}
				if got != tc.want {
					t.Errorf("%s/%s/seed=%d diverges from pre-refactor golden:\n got %+v\nwant %+v",
						tc.graph, tc.entry, tc.seed, got, tc.want)
				}
			}
			for _, tc := range goldenEccCases {
				g := graphs[tc.graph]
				opts := Options{Seed: tc.seed, Parallel: cfg.par, Engine: []congest.Option{congest.WithStrictAccounting()}}
				got, err := Eccentricities(g, opts)
				if err != nil {
					t.Fatalf("%s/ecc/seed=%d: %v", tc.graph, tc.seed, err)
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Errorf("%s/ecc/seed=%d diverges from pre-refactor golden:\n got %+v\nwant %+v",
						tc.graph, tc.seed, got, tc.want)
				}
			}
		})
	}
}
