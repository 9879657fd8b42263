package congest

import (
	"reflect"
	"testing"

	"qcongest/internal/graph"
)

func weightedTestGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	return graph.WithWeights(graph.RandomConnected(n, 0.12, seed), 9, seed+50)
}

// weightedSSSP runs the synchronous Bellman–Ford program from source on a
// fresh network and returns every vertex's weighted distance.
func weightedSSSP(topo *Topology, source int, opts ...Option) ([]int, Metrics, error) {
	n := topo.N()
	duration := ssspDuration(n)
	bound := topo.DistBound()
	nw := NewNetworkOn(topo, func(v int) Node {
		return NewWeightedSSSPNode(v == source, topo.NeighborWeights(v), bound, duration)
	}, opts...)
	if err := nw.Run(duration + 4); err != nil {
		return nil, nw.Metrics(), err
	}
	dist := make([]int, n)
	for v := range dist {
		dist[v] = nw.Node(v).(*WeightedSSSPNode).Dist
	}
	return dist, nw.Metrics(), nil
}

// TestWeightedSSSPMatchesDijkstra checks the distributed Bellman–Ford
// program against the sequential Dijkstra oracle, on weighted and unweighted
// graphs.
func TestWeightedSSSPMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, g := range []*graph.Graph{
			weightedTestGraph(t, 20, seed),
			graph.RandomConnected(20, 0.12, seed),
		} {
			topo, err := NewTopology(g)
			if err != nil {
				t.Fatal(err)
			}
			for src := 0; src < g.N(); src += 5 {
				want := g.Dijkstra(src)
				dist, m, err := weightedSSSP(topo, src, WithStrictAccounting())
				if err != nil {
					t.Fatalf("seed %d src %d: %v", seed, src, err)
				}
				if !reflect.DeepEqual(dist, want) {
					t.Fatalf("seed %d src %d: dist %v, want %v", seed, src, dist, want)
				}
				if m.Rounds != ssspDuration(g.N()) {
					t.Fatalf("seed %d src %d: %d rounds, want fixed duration %d (input-independence)",
						seed, src, m.Rounds, ssspDuration(g.N()))
				}
			}
		}
	}
}

// TestWeightedEccentricitySession checks the session-backed weighted
// Evaluation against the graph oracle, that reuse is bit-identical to a
// freshly built session, and that two sessions evaluate independently and
// identically.
func TestWeightedEccentricitySession(t *testing.T) {
	g := weightedTestGraph(t, 24, 3)
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := PreprocessOn(topo)
	if err != nil {
		t.Fatal(err)
	}
	es := NewWeightedEccSession(topo, info, WithStrictAccounting())
	defer es.Close()
	for src := 0; src < g.N(); src++ {
		want, err := g.WeightedEccentricity(src)
		if err != nil {
			t.Fatal(err)
		}
		got, m, err := es.Eval(src)
		if err != nil {
			t.Fatalf("src %d: %v", src, err)
		}
		if got != want {
			t.Fatalf("src %d: session ecc %d, want %d", src, got, want)
		}
		once := NewWeightedEccSession(topo, info, WithStrictAccounting())
		fresh, fm, err := once.Eval(src)
		once.Close()
		if err != nil {
			t.Fatal(err)
		}
		if fresh != got || fm != m {
			t.Fatalf("src %d: session (%d, %+v) != fresh (%d, %+v)", src, got, m, fresh, fm)
		}
	}
	c := NewWeightedEccSession(topo, info, WithStrictAccounting())
	defer c.Close()
	for _, src := range []int{0, 7, 13} {
		a, ma, err := es.Eval(src)
		if err != nil {
			t.Fatal(err)
		}
		b, mb, err := c.Eval(src)
		if err != nil {
			t.Fatal(err)
		}
		if a != b || ma != mb {
			t.Fatalf("src %d: second session (%d, %+v) != first (%d, %+v)", src, b, mb, a, ma)
		}
	}
}

// TestClassicalWeightedDiameter checks the Theta(n^2) classical weighted
// baseline against the Floyd–Warshall oracle.
func TestClassicalWeightedDiameter(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := weightedTestGraph(t, 16, seed)
		mat, err := g.FloydWarshall()
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, row := range mat {
			for _, d := range row {
				if d > want {
					want = d
				}
			}
		}
		res, err := ClassicalWeightedDiameter(g, WithStrictAccounting())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Diameter != want {
			t.Fatalf("seed %d: weighted diameter %d, want %d", seed, res.Diameter, want)
		}
		if res.Metrics.Rounds == 0 || res.Metrics.Bits == 0 {
			t.Fatalf("seed %d: empty metrics %+v", seed, res.Metrics)
		}
	}
}

// TestClassicalEccentricities checks the Theta(n) all-eccentricities
// baseline against the per-vertex BFS oracle.
func TestClassicalEccentricities(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(17),
		graph.RandomConnected(30, 0.1, 2),
		graph.Cycle(12),
	} {
		want, err := g.AllEccentricities()
		if err != nil {
			t.Fatal(err)
		}
		got, m, err := ClassicalEccentricities(g, WithStrictAccounting())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("eccentricities %v, want %v", got, want)
		}
		if m.Rounds == 0 {
			t.Fatal("no rounds recorded")
		}
	}
	if _, _, err := ClassicalEccentricities(graph.New(0)); err == nil {
		t.Fatal("empty graph must error")
	}
	if ecc, _, err := ClassicalEccentricities(graph.New(1)); err != nil || !reflect.DeepEqual(ecc, []int{0}) {
		t.Fatalf("single vertex: %v, %v, want [0]", ecc, err)
	}
}

// TestWeightedWireWidths pins the weighted wire encodings: the distance
// field is BitsForID(bound+1) bits, verified against the derived width and
// against a manual round-trip at the topology's bound.
func TestWeightedWireWidths(t *testing.T) {
	g := graph.New(5)
	g.MustAddWeightedEdge(0, 1, 7)
	g.MustAddWeightedEdge(1, 2, 3)
	g.MustAddWeightedEdge(2, 3, 7)
	g.MustAddWeightedEdge(3, 4, 1)
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	if topo.MaxWeight() != 7 || topo.DistBound() != 4*7 {
		t.Fatalf("maxW=%d bound=%d, want 7, 28", topo.MaxWeight(), topo.DistBound())
	}
	bound := topo.DistBound()
	var w Writer
	w.Reset(topo.N())
	tx := msgWDist{Dist: 18, Bound: bound}
	tx.MarshalWire(&w)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	if got, want := w.Len(), BitsForID(bound+1); got != want {
		t.Fatalf("encoded %d bits, want %d", got, want)
	}
	if _, width, _ := tx.fields(topo.N()).pack(); w.Len() != width {
		t.Fatalf("declared %d payload bits, encoded %d", width, w.Len())
	}
	// Unweighted topologies keep weights nil and bound n-1.
	ut, err := NewTopology(graph.Path(6))
	if err != nil {
		t.Fatal(err)
	}
	if ut.Weighted() || ut.NeighborWeights(2) != nil || ut.DistBound() != 5 {
		t.Fatalf("unweighted topology: weighted=%v weights=%v bound=%d",
			ut.Weighted(), ut.NeighborWeights(2), ut.DistBound())
	}
}

// TestWeightedResetFromFields asserts the Resettable contract for the
// weighted programs: ResetNode discards the run state and restores exactly
// the constructed state of the inputs the fields hold.
func TestWeightedResetFromFields(t *testing.T) {
	s := NewWeightedSSSPNode(false, nil, 10, 4)
	s.Dist, s.pending, s.started, s.finished = 3, true, true, true
	s.Source = true
	s.ResetNode()
	if want := NewWeightedSSSPNode(true, nil, 10, 4); !reflect.DeepEqual(s, want) {
		t.Errorf("reset WeightedSSSPNode = %+v, want %+v", s, want)
	}
	c := NewConvergecastNode(KindWMax, -1, nil, 0, 0, 10)
	c.Agg, c.AggWitness, c.received, c.sent = 9, 4, 1, true
	c.Value, c.Witness = 7, 2
	c.ResetNode()
	if want := NewConvergecastNode(KindWMax, -1, nil, 7, 2, 10); !reflect.DeepEqual(c, want) {
		t.Errorf("reset ConvergecastNode = %+v, want %+v", c, want)
	}
}
