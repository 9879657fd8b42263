package reduction

import (
	"fmt"

	"qcongest/internal/bitstring"
	"qcongest/internal/graph"
)

// NewHW12 builds the (Theta(n), Theta(n^2), 2, 3)-reduction of Theorem 8
// (the [HW12] construction, Figure 4 of the paper) for s node pairs per
// side: four s-cliques L, L', R, R', hub vertices a and b, matchings
// l_i - r_i and l'_i - r'_i, and the hub edge a - b. The inputs x, y are
// s*s-bit strings indexed by (i, j): x_{ij} = 0 adds the edge {l_i, l'_j}
// and y_{ij} = 0 adds {r_i, r'_j}. The distance between l_i and r'_j is 3
// exactly when x_{ij} = y_{ij} = 1, and at most 2 otherwise.
//
// Vertex layout: L = [0, s), L' = [s, 2s), a = 2s,
// R = [2s+1, 3s+1), R' = [3s+1, 4s+1), b = 4s+1. Total n = 4s + 2.
func NewHW12(s int) (*Reduction, error) {
	if s < 1 {
		return nil, fmt.Errorf("reduction: hw12 needs s >= 1, got %d", s)
	}
	n := 4*s + 2
	g := graph.New(n)
	l := func(i int) int { return i }
	lp := func(i int) int { return s + i }
	a := 2 * s
	r := func(i int) int { return 2*s + 1 + i }
	rp := func(i int) int { return 3*s + 1 + i }
	b := 4*s + 1

	// Cliques.
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			g.MustAddEdge(l(i), l(j))
			g.MustAddEdge(lp(i), lp(j))
			g.MustAddEdge(r(i), r(j))
			g.MustAddEdge(rp(i), rp(j))
		}
	}
	// Hubs: a adjacent to L and L', b adjacent to R and R'.
	for i := 0; i < s; i++ {
		g.MustAddEdge(a, l(i))
		g.MustAddEdge(a, lp(i))
		g.MustAddEdge(b, r(i))
		g.MustAddEdge(b, rp(i))
	}
	// Cut edges: matchings plus the hub edge.
	var cut [][2]int
	for i := 0; i < s; i++ {
		g.MustAddEdge(l(i), r(i))
		cut = append(cut, [2]int{l(i), r(i)})
		g.MustAddEdge(lp(i), rp(i))
		cut = append(cut, [2]int{lp(i), rp(i)})
	}
	g.MustAddEdge(a, b)
	cut = append(cut, [2]int{a, b})

	un := make([]int, 0, 2*s+1)
	vn := make([]int, 0, 2*s+1)
	for i := 0; i < s; i++ {
		un = append(un, l(i), lp(i))
		vn = append(vn, r(i), rp(i))
	}
	un = append(un, a)
	vn = append(vn, b)

	return &Reduction{
		Name:     "hw12",
		B:        len(cut),
		K:        s * s,
		D1:       2,
		D2:       3,
		Un:       un,
		Vn:       vn,
		Base:     g,
		CutEdges: cut,
		Gx: func(x *bitstring.Bits) [][2]int {
			var edges [][2]int
			for i := 0; i < s; i++ {
				for j := 0; j < s; j++ {
					if !x.Get(i*s + j) {
						edges = append(edges, [2]int{l(i), lp(j)})
					}
				}
			}
			return edges
		},
		Hy: func(y *bitstring.Bits) [][2]int {
			var edges [][2]int
			for i := 0; i < s; i++ {
				for j := 0; j < s; j++ {
					if !y.Get(i*s + j) {
						edges = append(edges, [2]int{r(i), rp(j)})
					}
				}
			}
			return edges
		},
	}, nil
}
