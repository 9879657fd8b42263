package core

// Classical-oracle cross-checks and round-envelope regressions for the
// query-framework workloads (triangle detection/counting, minimum tree
// cut). The oracles here are code-independent: brute-force triangle flags
// straight off the adjacency relation, and a from-scratch reimplementation
// of the documented preprocessing tree (leader = max id, BFS parent =
// smallest-id neighbor one level up) for the cut weights.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
)

// workloadSuite is the oracle suite plus dense graphs that guarantee the
// triangle-rich side of the predicate (the base suite's trees and sparse
// graphs cover the triangle-free side).
func workloadSuite(t *testing.T) []oracleCase {
	t.Helper()
	cases := oracleSuite(t)
	for i := 0; i < 6; i++ {
		n := 10 + i
		cases = append(cases, oracleCase{
			name: fmt.Sprintf("er-dense/n=%d/seed=%d", n, i),
			g:    graph.RandomConnected(n, 0.5, int64(900+i)),
		})
	}
	return cases
}

// bruteTriangleFlags is the O(n^3) oracle: flag v iff two of its neighbors
// are adjacent.
func bruteTriangleFlags(g *graph.Graph) []bool {
	flags := make([]bool, g.N())
	for v := range flags {
		nbs := g.Neighbors(v)
		for i, a := range nbs {
			for _, b := range nbs[i+1:] {
				if g.HasEdge(a, b) {
					flags[v] = true
				}
			}
		}
	}
	return flags
}

// bruteTree recomputes the preprocessing BFS tree from its documented
// definition, sharing no code with internal/congest: the leader is the
// maximum id, and each vertex's parent is its smallest-id neighbor one BFS
// level closer to the leader (the congest BFS adopts the first arrival of
// an id-sorted inbox).
func bruteTree(g *graph.Graph) (leader int, parent []int) {
	n := g.N()
	leader = n - 1
	dist := make([]int, n)
	for v := range dist {
		dist[v] = -1
	}
	dist[leader] = 0
	queue := []int{leader}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(v) {
			if dist[nb] < 0 {
				dist[nb] = dist[v] + 1
				queue = append(queue, nb)
			}
		}
	}
	parent = make([]int, n)
	for v := range parent {
		parent[v] = -1
		if v == leader {
			continue
		}
		for _, nb := range g.Neighbors(v) { // ascending: first hit is min id
			if dist[nb] == dist[v]-1 {
				parent[v] = nb
				break
			}
		}
	}
	return leader, parent
}

// bruteCutWeight computes the weight of the edges crossing
// (subtree(root), rest) on the parent array's tree.
func bruteCutWeight(g *graph.Graph, parent []int, root int) int {
	n := g.N()
	inside := make([]bool, n)
	for v := 0; v < n; v++ {
		for u := v; u >= 0; u = parent[u] {
			if u == root {
				inside[v] = true
				break
			}
		}
	}
	w := 0
	for v := 0; v < n; v++ {
		for _, nb := range g.Neighbors(v) {
			if v < nb && inside[v] != inside[nb] {
				w += g.Weight(v, nb)
			}
		}
	}
	return w
}

// workloadDelta keeps per-query failure probability negligible across the
// suite; every run is seed-deterministic regardless.
const workloadDelta = 1e-6

// TestTriangleAgainstBruteForce cross-checks TriangleDetect and
// TriangleCount against the O(n^3) oracle on every suite graph.
func TestTriangleAgainstBruteForce(t *testing.T) {
	for i, oc := range workloadSuite(t) {
		oc, seed := oc, int64(40+i)
		t.Run(oc.name, func(t *testing.T) {
			t.Parallel()
			flags := bruteTriangleFlags(oc.g)
			var want []int
			for v, f := range flags {
				if f {
					want = append(want, v)
				}
			}
			opts := Options{Seed: seed, Delta: workloadDelta}
			det, err := TriangleDetect(oc.g, opts)
			if err != nil {
				t.Fatalf("TriangleDetect: %v", err)
			}
			if det.Found != (len(want) > 0) {
				t.Errorf("Detect: Found=%v, want %v (%d flagged)", det.Found, len(want) > 0, len(want))
			}
			if det.Found && !flags[det.Vertex] {
				t.Errorf("Detect: vertex %d is not on a triangle", det.Vertex)
			}
			cnt, err := TriangleCount(oc.g, opts)
			if err != nil {
				t.Fatalf("TriangleCount: %v", err)
			}
			if !reflect.DeepEqual(cnt.Vertices, want) || cnt.Count != len(want) {
				t.Errorf("Count: got %v (count %d), want %v", cnt.Vertices, cnt.Count, want)
			}
		})
	}
}

// TestMinTreeCutAgainstBruteForce cross-checks MinTreeCut against the
// reimplemented tree and exhaustive minimization on every suite graph.
func TestMinTreeCutAgainstBruteForce(t *testing.T) {
	for i, oc := range workloadSuite(t) {
		oc, seed := oc, int64(80+i)
		t.Run(oc.name, func(t *testing.T) {
			t.Parallel()
			leader, parent := bruteTree(oc.g)
			best := math.MaxInt
			for v := 0; v < oc.g.N(); v++ {
				if v != leader {
					best = min(best, bruteCutWeight(oc.g, parent, v))
				}
			}
			res, err := MinTreeCut(oc.g, Options{Seed: seed, Delta: workloadDelta})
			if err != nil {
				t.Fatalf("MinTreeCut: %v", err)
			}
			if res.Weight != best {
				t.Errorf("Weight = %d, want %d", res.Weight, best)
			}
			if res.Root == leader || bruteCutWeight(oc.g, parent, res.Root) != res.Weight {
				t.Errorf("Root = %d does not achieve the reported weight %d", res.Root, res.Weight)
			}
		})
	}
}

// TestWorkloadConfigIdentity replays both workloads under the golden-test
// configuration matrix (workers x sequential/batched, strict accounting)
// and requires bit-identical Results.
func TestWorkloadConfigIdentity(t *testing.T) {
	configs := []struct {
		name     string
		parallel int
		engine   []congest.Option
	}{
		{"w1-seq", 1, []congest.Option{congest.WithWorkers(1), congest.WithStrictAccounting()}},
		{"w2-seq", 1, []congest.Option{congest.WithWorkers(2), congest.WithStrictAccounting()}},
		{"w8-par4", 4, []congest.Option{congest.WithWorkers(8), congest.WithStrictAccounting()}},
		{"w1-par4", 4, []congest.Option{congest.WithWorkers(1), congest.WithStrictAccounting()}},
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er16", graph.RandomConnected(16, 0.3, 7)},
		{"tree13", graph.RandomTree(13, 3)},
		{"erw14", graph.WithWeights(graph.RandomConnected(14, 0.2, 9), 6, 90)},
	}
	for _, gc := range graphs {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			var baseTri, baseCnt TriangleResult
			var baseCut CutResult
			for i, cfg := range configs {
				opts := Options{Seed: 21, Delta: workloadDelta, Parallel: cfg.parallel, Engine: cfg.engine}
				tri, err := TriangleDetect(gc.g, opts)
				if err != nil {
					t.Fatalf("%s: TriangleDetect: %v", cfg.name, err)
				}
				cnt, err := TriangleCount(gc.g, opts)
				if err != nil {
					t.Fatalf("%s: TriangleCount: %v", cfg.name, err)
				}
				cut, err := MinTreeCut(gc.g, opts)
				if err != nil {
					t.Fatalf("%s: MinTreeCut: %v", cfg.name, err)
				}
				if i == 0 {
					baseTri, baseCnt, baseCut = tri, cnt, cut
					continue
				}
				if !reflect.DeepEqual(tri, baseTri) {
					t.Errorf("%s: TriangleDetect diverges:\n got %+v\nwant %+v", cfg.name, tri, baseTri)
				}
				if !reflect.DeepEqual(cnt, baseCnt) {
					t.Errorf("%s: TriangleCount diverges:\n got %+v\nwant %+v", cfg.name, cnt, baseCnt)
				}
				if !reflect.DeepEqual(cut, baseCut) {
					t.Errorf("%s: MinTreeCut diverges:\n got %+v\nwant %+v", cfg.name, cut, baseCut)
				}
			}
		})
	}
}

// TestWorkloadRoundEnvelope pins the measured round counts inside the
// paper-style envelope derived from the amplification budget
// B = ceil(ln(1/delta))*ceil(3*sqrt(n)) + 1 (Grover rotations): each
// rotation costs two Setup and two Evaluation applications, and each BBHT
// attempt adds one of each for verification — so the distributed cost of a
// search is at most (3B + slack)*(Setup + 2*Eval + 1) on top of InitRounds.
// The count multiplies by (found+1) passes of the search-and-exclude loop,
// and the minimum finding by the O(log n) rounds of the Dürr–Høyer climb.
// Measured constant factors live in EXPERIMENTS.md; a regression that
// inflates the amplification schedule breaks these inequalities.
func TestWorkloadRoundEnvelope(t *testing.T) {
	boost := int(math.Ceil(math.Log(1 / workloadDelta))) // 14 at delta 1e-6
	const slack = 8                                      // zero-rotation BBHT attempts
	for i, oc := range workloadSuite(t) {
		if i%4 != 0 { // every 4th graph keeps the sweep cheap but broad
			continue
		}
		oc, seed := oc, int64(160+i)
		t.Run(oc.name, func(t *testing.T) {
			t.Parallel()
			n := oc.g.N()
			budget := boost*int(math.Ceil(3*math.Sqrt(float64(n)))) + 1
			calls := 3*budget + slack
			perIter := func(setup, eval int) int { return setup + 2*eval + 1 }

			det, err := TriangleDetect(oc.g, Options{Seed: seed, Delta: workloadDelta})
			if err != nil {
				t.Fatalf("TriangleDetect: %v", err)
			}
			if limit := det.InitRounds + calls*perIter(det.SetupRounds, det.EvalRounds); det.Rounds > limit {
				t.Errorf("Detect rounds %d exceed envelope %d (n=%d)", det.Rounds, limit, n)
			}
			cnt, err := TriangleCount(oc.g, Options{Seed: seed, Delta: workloadDelta})
			if err != nil {
				t.Fatalf("TriangleCount: %v", err)
			}
			if limit := cnt.InitRounds + calls*(cnt.Count+1)*perIter(cnt.SetupRounds, cnt.EvalRounds); cnt.Rounds > limit {
				t.Errorf("Count rounds %d exceed envelope %d (n=%d, count=%d)", cnt.Rounds, limit, n, cnt.Count)
			}
			cut, err := MinTreeCut(oc.g, Options{Seed: seed, Delta: workloadDelta})
			if err != nil {
				t.Fatalf("MinTreeCut: %v", err)
			}
			// Dürr–Høyer with eps = 1/(n-1): the threshold climb performs
			// O(log(1/eps)) rounds of O(sqrt(n)) amplification each.
			logEps := int(math.Ceil(math.Log2(float64(n-1)))) + 1
			limit := cut.InitRounds + logEps*calls*perIter(cut.SetupRounds, cut.EvalRounds)
			if cut.Rounds > limit {
				t.Errorf("MinTreeCut rounds %d exceed envelope %d (n=%d)", cut.Rounds, limit, n)
			}
		})
	}
}
