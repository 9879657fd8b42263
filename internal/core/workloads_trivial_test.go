package core

// Degenerate inputs of the workload entry points: graphs too small to
// contain a triangle or a proper tree cut, and disconnected graphs.

import (
	"errors"
	"testing"

	"qcongest/internal/graph"
)

func TestTriangleTrivialGraphs(t *testing.T) {
	for _, n := range []int{0, 1} {
		for _, f := range []func(*graph.Graph, Options) (TriangleResult, error){TriangleDetect, TriangleCount} {
			res, err := f(graph.New(n), Options{Seed: 1})
			if err != nil || res.Found || res.Count != 0 {
				t.Errorf("n=%d: got %+v, err %v; want empty result", n, res, err)
			}
		}
	}
	edge := graph.New(2)
	if err := edge.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	res, err := TriangleDetect(edge, Options{Seed: 1})
	if err != nil || res.Found {
		t.Errorf("K2: got %+v, err %v; want triangle-free", res, err)
	}
	if _, err := TriangleCount(graph.New(2), Options{Seed: 1}); !errors.Is(err, graph.ErrDisconnected) {
		t.Errorf("disconnected 2-vertex graph: err %v, want ErrDisconnected", err)
	}
	if _, err := TriangleDetect(graph.New(5), Options{Seed: 1}); !errors.Is(err, graph.ErrDisconnected) {
		t.Errorf("edgeless 5-vertex graph: err %v, want ErrDisconnected", err)
	}
	// A triangle-free but connected graph exercises the not-found search.
	det, err := TriangleDetect(graph.Path(6), Options{Seed: 1})
	if err != nil || det.Found {
		t.Errorf("path: got %+v, err %v; want not found", det, err)
	}
}

func TestMinTreeCutTrivialGraphs(t *testing.T) {
	for _, n := range []int{0, 1} {
		if _, err := MinTreeCut(graph.New(n), Options{Seed: 1}); !errors.Is(err, errNoTreeCut) {
			t.Errorf("n=%d: err %v, want errNoTreeCut", n, err)
		}
	}
	if _, err := MinTreeCut(graph.New(2), Options{Seed: 1}); !errors.Is(err, graph.ErrDisconnected) {
		t.Errorf("disconnected K2: err %v, want ErrDisconnected", err)
	}
	if _, err := MinTreeCut(graph.New(4), Options{Seed: 1}); !errors.Is(err, graph.ErrDisconnected) {
		t.Errorf("edgeless 4-vertex graph: err %v, want ErrDisconnected", err)
	}
	edge := graph.New(2)
	if err := edge.AddWeightedEdge(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	res, err := MinTreeCut(edge, Options{Seed: 1})
	if err != nil || res.Weight != 7 || res.Root != 0 {
		t.Errorf("weighted K2: got %+v, err %v; want weight 7 at root 0", res, err)
	}
}
