package reduction

import (
	"fmt"

	"qcongest/internal/bitstring"
	"qcongest/internal/graph"
)

// PathNetwork returns the network G_d of Figure 5: nodes A and B joined by
// a path of length d+1 through d intermediate nodes P_1..P_d. Vertex 0 is
// A, vertex d+1 is B.
func PathNetwork(d int) (*graph.Graph, error) {
	if d < 1 {
		return nil, fmt.Errorf("reduction: path network needs d >= 1, got %d", d)
	}
	return graph.Path(d + 2), nil
}

// Subdivided is the graph G'_n(x, y) of Figure 8: the reduction graph
// Gn(x, y) with every cut edge replaced by a path of length d+1 (d new
// vertices per cut edge). Deciding whether its diameter is d+d1 or d+d2
// computes DISJ_k, but now every bit needs d rounds to cross the cut —
// the engine behind Theorem 3.
type Subdivided struct {
	G *graph.Graph
	// D is the subdivision length d.
	D int
	// LeftDiameter / RightDiameter are the expected diameters: d+d1 for
	// disjoint inputs, d+d2 for intersecting ones.
	LeftDiameter, RightDiameter int
	// Un, Vn are the original sides; Layers[t] (t in [0,d)) lists the
	// subdivision vertices at depth t+1 from the Un side, one per cut
	// edge — the vertical layers simulated by player P_{t+1} in Figure 8.
	Un, Vn []int
	Layers [][]int
}

// BuildSubdivided constructs G'_n(x, y) from a reduction and inputs.
func BuildSubdivided(red *Reduction, x, y *bitstring.Bits, d int) (*Subdivided, error) {
	if d < 1 {
		return nil, fmt.Errorf("reduction: subdivision needs d >= 1, got %d", d)
	}
	base, err := red.Build(x, y)
	if err != nil {
		return nil, err
	}
	cutSet := make(map[[2]int]bool, len(red.CutEdges))
	for _, e := range red.CutEdges {
		cutSet[norm(e)] = true
	}

	g := graph.New(base.N())
	for _, e := range base.Edges() {
		if !cutSet[norm([2]int{e[0], e[1]})] {
			g.MustAddEdge(e[0], e[1])
		}
	}
	layers := make([][]int, d)
	for _, e := range red.CutEdges {
		// Orient the path from the Un endpoint to the Vn endpoint.
		u, v := e[0], e[1]
		prev := u
		for t := 0; t < d; t++ {
			nv := g.AddVertex()
			layers[t] = append(layers[t], nv)
			g.MustAddEdge(prev, nv)
			prev = nv
		}
		g.MustAddEdge(prev, v)
	}
	return &Subdivided{
		G:             g,
		D:             d,
		LeftDiameter:  d + red.D1,
		RightDiameter: d + red.D2,
		Un:            red.Un,
		Vn:            red.Vn,
		Layers:        layers,
	}, nil
}

func norm(e [2]int) [2]int {
	if e[0] > e[1] {
		return [2]int{e[1], e[0]}
	}
	return e
}
