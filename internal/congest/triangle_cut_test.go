package congest

// Unit tests of the triangle-probe and tree-cut programs at the congest
// layer: flags and cut weights are cross-checked against direct adjacency
// computations, and the reusable sessions against their own first runs
// (independent sessions, reset reuse).

import (
	"fmt"
	"reflect"
	"testing"

	"qcongest/internal/graph"
)

func triangleFixtures(t *testing.T) []*graph.Graph {
	t.Helper()
	k4 := graph.New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			k4.AddEdge(u, v)
		}
	}
	gs := []*graph.Graph{
		graph.Path(8),           // triangle-free
		graph.RandomTree(11, 5), // triangle-free
		k4,                      // every vertex on a triangle
		graph.RandomConnected(12, 0.4, 3),
		graph.RandomConnected(15, 0.25, 8),
		graph.WithWeights(graph.RandomConnected(10, 0.5, 2), 7, 4),
	}
	for i := 0; i < 6; i++ {
		gs = append(gs, graph.RandomConnected(9+i, 0.35, int64(50+i)))
	}
	return gs
}

func bruteFlags(g *graph.Graph) []bool {
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

func TestTriangleFlags(t *testing.T) {
	for gi, g := range triangleFixtures(t) {
		topo, err := NewTopology(g)
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		flags, m, err := TriangleFlagsOn(topo, WithStrictAccounting())
		if err != nil {
			t.Fatalf("graph %d: TriangleFlagsOn: %v", gi, err)
		}
		if want := bruteFlags(g); !reflect.DeepEqual(flags, want) {
			t.Errorf("graph %d: flags %v, want %v", gi, flags, want)
		}
		if m.Rounds < 1 {
			t.Errorf("graph %d: probe reported %d rounds", gi, m.Rounds)
		}
	}
}

func TestTriangleSessionEvalAndClone(t *testing.T) {
	g := graph.RandomConnected(13, 0.35, 6)
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := PreprocessOn(topo)
	if err != nil {
		t.Fatal(err)
	}
	flags, _, err := TriangleFlagsOn(topo)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTriangleSession(topo, info, flags, WithStrictAccounting())
	second := NewTriangleSession(topo, info, flags, WithStrictAccounting())
	var baseRounds int
	for u := 0; u < g.N(); u++ {
		v, m, err := ts.Eval(u)
		if err != nil {
			t.Fatalf("Eval(%d): %v", u, err)
		}
		want := 0
		if flags[u] {
			want = 1
		}
		if v != want {
			t.Errorf("Eval(%d) = %d, want %d", u, v, want)
		}
		if u == 0 {
			baseRounds = m.Rounds
		} else if m.Rounds != baseRounds {
			t.Errorf("Eval(%d): %d rounds, want input-independent %d", u, m.Rounds, baseRounds)
		}
		cv, _, err := second.Eval(u)
		if err != nil || cv != v {
			t.Errorf("second session Eval(%d) = %d (err %v), want %d", u, cv, err, v)
		}
	}
}

// bruteCut computes the crossing weight of (subtree(root), rest) directly
// from the tree arrays and the adjacency relation.
func bruteCut(g *graph.Graph, info *PreInfo, root int) int {
	inside := make([]bool, g.N())
	for v := range inside {
		for u := v; u >= 0; u = info.Parent[u] {
			if u == root {
				inside[v] = true
				break
			}
		}
	}
	w := 0
	for v := range inside {
		for _, nb := range g.Neighbors(v) {
			if v < nb && inside[v] != inside[nb] {
				w += g.Weight(v, nb)
			}
		}
	}
	return w
}

func TestCutSessionEvalAndClone(t *testing.T) {
	for gi, g := range []*graph.Graph{
		graph.Path(9),
		graph.RandomTree(12, 7),
		graph.RandomConnected(14, 0.25, 4),
		graph.WithWeights(graph.RandomConnected(11, 0.3, 9), 8, 13),
		graph.WithWeights(graph.RandomTree(10, 2), 5, 21),
	} {
		t.Run(fmt.Sprintf("graph=%d", gi), func(t *testing.T) {
			topo, err := NewTopology(g)
			if err != nil {
				t.Fatal(err)
			}
			info, _, err := PreprocessOn(topo)
			if err != nil {
				t.Fatal(err)
			}
			cs := NewCutSession(topo, info, WithStrictAccounting())
			second := NewCutSession(topo, info, WithStrictAccounting())
			var baseRounds int
			first := true
			for u := 0; u < g.N(); u++ {
				if u == info.Leader {
					continue
				}
				got, m, err := cs.Eval(u)
				if err != nil {
					t.Fatalf("Eval(%d): %v", u, err)
				}
				if want := bruteCut(g, info, u); got != want {
					t.Errorf("Eval(%d) = %d, want %d", u, got, want)
				}
				if first {
					baseRounds, first = m.Rounds, false
				} else if m.Rounds != baseRounds {
					t.Errorf("Eval(%d): %d rounds, want input-independent %d", u, m.Rounds, baseRounds)
				}
				cv, _, err := second.Eval(u)
				if err != nil || cv != got {
					t.Errorf("second session Eval(%d) = %d (err %v), want %d", u, cv, err, got)
				}
			}
		})
	}
}

func TestTotalWeight(t *testing.T) {
	g := graph.Path(5) // 4 unit edges
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	if w := topo.TotalWeight(); w != 4 {
		t.Errorf("unweighted path: TotalWeight = %d, want 4", w)
	}
	wg := graph.New(3)
	wg.AddWeightedEdge(0, 1, 5)
	wg.AddWeightedEdge(1, 2, 7)
	wtopo, err := NewTopology(wg)
	if err != nil {
		t.Fatal(err)
	}
	if w := wtopo.TotalWeight(); w != 12 {
		t.Errorf("weighted path: TotalWeight = %d, want 12", w)
	}
}

// TestCutResetFromFields asserts the Resettable contract for the cut and
// triangle programs: ResetNode discards the run state and restores exactly
// the constructed state of the inputs the fields hold.
func TestCutResetFromFields(t *testing.T) {
	m := NewCutMarkNode(-1, 2, 3)
	m.NeighborSide[0], m.NeighborSide[1], m.finished = true, true, true
	m.Marked = true
	m.ResetNode()
	want := NewCutMarkNode(-1, 2, 3)
	want.Marked = true
	if !reflect.DeepEqual(m, want) {
		t.Errorf("reset CutMarkNode = %+v, want %+v", m, want)
	}
	c := NewConvergecastNode(KindCutSum, -1, nil, 0, 0, 9)
	c.Agg, c.received, c.sent = 8, 2, true
	c.Value = 5
	c.ResetNode()
	if want := NewConvergecastNode(KindCutSum, -1, nil, 5, 0, 9); !reflect.DeepEqual(c, want) {
		t.Errorf("reset ConvergecastNode = %+v, want %+v", c, want)
	}
	p := NewTriangleProbeNode(3)
	p.OnTriangle, p.finished = true, true
	p.ResetNode()
	if want := NewTriangleProbeNode(3); !reflect.DeepEqual(p, want) {
		t.Errorf("reset TriangleProbeNode = %+v, want %+v", p, want)
	}
}
