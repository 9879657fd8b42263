package reduction

import (
	"fmt"
	"math/bits"

	"qcongest/internal/bitstring"
	"qcongest/internal/graph"
)

// NewACHK16 builds a (Theta(log n), Theta(n), 4, 5)-reduction in the spirit
// of [ACHK16] (the paper's Theorem 9): only Theta(log n) edges cross the
// cut, yet deciding diameter 4 vs 5 solves DISJ_m. The paper cites the
// construction without reproducing it; this bit-gadget version is proved
// correct in the package tests (exhaustively for small m).
//
// Construction. Let q = ceil(log2 m). The left side holds vertices
// l_0..l_{m-1}, bit vertices f_{j,c} for j in [q], c in {0,1}, and a hub
// cL; symmetrically the right side holds r_i, g_{j,c} and cR.
//
// Fixed edges: l_i - f_{j, bit_j(i)} for every j; cL - f_{j,c} for all j,c;
// and symmetrically on the right. Cut edges: f_{j,c} - g_{j,1-c} for all
// j,c, plus cL - cR: exactly 2q + 1 = Theta(log n) edges.
//
// Input edges: x_i = 0 adds {l_i, cL}; y_i = 0 adds {r_i, cR}.
//
// Distances: d(l_i, r_i) = 5 iff x_i = y_i = 1 (no 4-path exists because
// the only cut neighbors of l_i's bit vertices carry complementary bit
// values, and the hubs are unreachable without the input edges), and every
// other pair is within distance 4.
//
// Vertex layout: l_i = i; f_{j,c} = m + 2j + c; cL = m + 2q;
// right side mirrored with offset m + 2q + 1. Total n = 2m + 4q + 2.
func NewACHK16(m int) (*Reduction, error) {
	if m < 2 {
		return nil, fmt.Errorf("reduction: achk16 needs m >= 2, got %d", m)
	}
	q := bits.Len(uint(m - 1))
	if q < 1 {
		q = 1
	}
	off := m + 2*q + 1
	n := 2 * off
	g := graph.New(n)

	l := func(i int) int { return i }
	f := func(j, c int) int { return m + 2*j + c }
	cL := m + 2*q
	r := func(i int) int { return off + i }
	gg := func(j, c int) int { return off + m + 2*j + c }
	cR := off + m + 2*q

	for i := 0; i < m; i++ {
		for j := 0; j < q; j++ {
			bit := (i >> j) & 1
			g.MustAddEdge(l(i), f(j, bit))
			g.MustAddEdge(r(i), gg(j, bit))
		}
	}
	for j := 0; j < q; j++ {
		for c := 0; c < 2; c++ {
			g.MustAddEdge(cL, f(j, c))
			g.MustAddEdge(cR, gg(j, c))
		}
	}
	var cut [][2]int
	for j := 0; j < q; j++ {
		for c := 0; c < 2; c++ {
			g.MustAddEdge(f(j, c), gg(j, 1-c))
			cut = append(cut, [2]int{f(j, c), gg(j, 1-c)})
		}
	}
	g.MustAddEdge(cL, cR)
	cut = append(cut, [2]int{cL, cR})

	un := make([]int, 0, off)
	vn := make([]int, 0, off)
	for v := 0; v < off; v++ {
		un = append(un, v)
		vn = append(vn, off+v)
	}

	return &Reduction{
		Name:     "achk16",
		B:        len(cut),
		K:        m,
		D1:       4,
		D2:       5,
		Un:       un,
		Vn:       vn,
		Base:     g,
		CutEdges: cut,
		Gx: func(x *bitstring.Bits) [][2]int {
			var edges [][2]int
			for i := 0; i < m; i++ {
				if !x.Get(i) {
					edges = append(edges, [2]int{l(i), cL})
				}
			}
			return edges
		},
		Hy: func(y *bitstring.Bits) [][2]int {
			var edges [][2]int
			for i := 0; i < m; i++ {
				if !y.Get(i) {
					edges = append(edges, [2]int{r(i), cR})
				}
			}
			return edges
		},
	}, nil
}
