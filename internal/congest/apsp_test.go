package congest

import (
	"math"
	"strings"
	"testing"

	"qcongest/internal/graph"
)

// skelFixture builds topology + preprocessing + a full-vertex skeleton
// oracle (S = V, hop budget h) — the unconditionally exact configuration.
func skelFixture(t *testing.T, g *graph.Graph, h int) (*Topology, *PreInfo, *SkelOracle) {
	t.Helper()
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := PreprocessOn(topo, WithStrictAccounting())
	if err != nil {
		t.Fatal(err)
	}
	skeleton := make([]int, g.N())
	for v := range skeleton {
		skeleton[v] = v
	}
	o, err := NewSkelOracle(topo, info, skeleton, h, WithStrictAccounting())
	if err != nil {
		t.Fatal(err)
	}
	return topo, info, o
}

// TestSkelOracleMatchesDijkstra checks distance rows and eccentricities of
// the skeleton oracle against the sequential Dijkstra oracle for every
// source, across hop budgets, and that the per-Evaluation
// round count is fixed across sources (input-independence — the property
// the query framework asserts).
func TestSkelOracleMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := weightedTestGraph(t, 22, seed)
		for _, h := range []int{1, 3, g.N()} {
			_, _, o := skelFixture(t, g, h)
			es := o.NewEvalSession(WithStrictAccounting())
			row := make([]int, g.N())
			fixedRounds := -1
			for src := 0; src < g.N(); src += 3 {
				want := g.Dijkstra(src)
				ecc, m, err := es.Eval(src, row)
				if err != nil {
					t.Fatalf("seed %d h %d src %d: %v", seed, h, src, err)
				}
				wantEcc := 0
				for v, d := range want {
					if d != row[v] {
						t.Fatalf("seed %d h %d src %d: row[%d] = %d, want %d", seed, h, src, v, row[v], d)
					}
					if d > wantEcc {
						wantEcc = d
					}
				}
				if ecc != wantEcc {
					t.Fatalf("seed %d h %d src %d: ecc %d, want %d", seed, h, src, ecc, wantEcc)
				}
				if fixedRounds == -1 {
					fixedRounds = m.Rounds
				} else if m.Rounds != fixedRounds {
					t.Fatalf("seed %d h %d src %d: %d rounds, want fixed %d (input-independence)",
						seed, h, src, m.Rounds, fixedRounds)
				}
			}
		}
	}
}

// TestSkelOracleSparseSkeletonError checks the documented failure mode: a
// skeleton that misses every h-hop window of some shortest path yields an
// explicit error, never a wrong distance. On a path graph, skeleton {0}
// with h = 1 cannot reach the far end.
func TestSkelOracleSparseSkeletonError(t *testing.T) {
	g := graph.New(6)
	for v := 0; v+1 < 6; v++ {
		if err := g.AddWeightedEdge(v, v+1, 2); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := PreprocessOn(topo)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewSkelOracle(topo, info, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	es := o.NewEvalSession()
	if _, _, err := es.Eval(5, nil); err == nil || !strings.Contains(err.Error(), "sample too sparse") {
		t.Fatalf("sparse skeleton: err %v, want unreached-vertex error", err)
	}
}

// TestSkelOracleValidation covers NewSkelOracle's parameter checks.
func TestSkelOracleValidation(t *testing.T) {
	g := weightedTestGraph(t, 8, 1)
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := PreprocessOn(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		skeleton []int
		h        int
	}{
		{"hop budget zero", []int{0}, 0},
		{"hop budget over n", []int{0}, 9},
		{"empty skeleton", nil, 1},
		{"oversized skeleton", make([]int, 9), 1},
		{"vertex out of range", []int{0, 8}, 1},
		{"duplicate vertex", []int{3, 3}, 1},
	} {
		if _, err := NewSkelOracle(topo, info, tc.skeleton, tc.h); err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
	}
}

// TestSkelOracleSingleVertex checks the n = 1 degenerate case end to end.
func TestSkelOracleSingleVertex(t *testing.T) {
	g := graph.New(1)
	_, _, o := skelFixture(t, g, 1)
	es := o.NewEvalSession(WithStrictAccounting())
	row := make([]int, 1)
	ecc, _, err := es.Eval(0, row)
	if err != nil {
		t.Fatal(err)
	}
	if ecc != 0 || row[0] != 0 {
		t.Fatalf("n=1: ecc %d row %v, want 0 and [0]", ecc, row)
	}
}

// TestDistBoundOverflowGuard checks the Topology build-time overflow guard
// on (n-1)*MaxWeight with near-limit weight tables: the largest safe weight
// passes and one past it is rejected. (NewTopologyFromCSR applies the same
// guard, but CSR weights are int32, so it is only reachable on 32-bit
// platforms.)
func TestDistBoundOverflowGuard(t *testing.T) {
	const n = 3
	limit := (math.MaxInt - 2) / (n - 1)
	for _, tc := range []struct {
		name string
		w    int
		ok   bool
	}{
		{"small weight", 9, true},
		{"largest safe weight", limit, true},
		{"one past the limit", limit + 1, false},
		{"max int weight", math.MaxInt, false},
	} {
		g := graph.New(n)
		if err := g.AddWeightedEdge(0, 1, tc.w); err != nil {
			t.Fatal(err)
		}
		if err := g.AddWeightedEdge(1, 2, tc.w); err != nil {
			t.Fatal(err)
		}
		topo, err := NewTopology(g)
		if tc.ok {
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if topo.DistBound() != (n-1)*tc.w {
				t.Fatalf("%s: DistBound %d, want %d", tc.name, topo.DistBound(), (n-1)*tc.w)
			}
		} else if err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Fatalf("%s: err %v, want overflow error", tc.name, err)
		}
	}
}

// TestSkelOracleBoundCap checks that NewSkelOracle rejects topologies whose
// distance bound would overflow the oracle's clamped arithmetic.
func TestSkelOracleBoundCap(t *testing.T) {
	g := graph.New(2)
	if err := g.AddWeightedEdge(0, 1, skelMaxBound+1); err != nil {
		t.Fatal(err)
	}
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := PreprocessOn(topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSkelOracle(topo, info, []int{0, 1}, 1); err == nil {
		t.Fatal("bound above skelMaxBound: no error")
	}
}
