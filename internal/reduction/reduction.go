// Package reduction implements the lower-bound machinery of Sections 5 and
// 6.2 of the paper: reductions from two-party disjointness to distributed
// diameter computation (Definition 3), the concrete constructions of
// Theorems 8 (Figure 4) and 9, the path network G_d (Figure 5), and the
// edge-subdivided graphs G'_n(x, y) (Figure 8) that make the diameter scale
// with d.
package reduction

import (
	"fmt"

	"qcongest/internal/bitstring"
	"qcongest/internal/graph"
)

// Reduction is a (b, k, d1, d2)-reduction from disjointness to diameter
// computation (Definition 3): a fixed bipartite graph Gn = (Un, Vn, En)
// with |En| = b cut edges, plus input-dependent edge sets gn(x) within Un
// and hn(y) within Vn, such that the graph Gn(x, y) has diameter <= d1 when
// DISJ_k(x, y) = 1 and >= d2 when DISJ_k(x, y) = 0.
type Reduction struct {
	Name string
	// B is the number of edges crossing the (Un, Vn) cut.
	B int
	// K is the disjointness input length.
	K int
	// D1, D2 are the diameter thresholds of Definition 3.
	D1, D2 int
	// Un, Vn are the two sides (disjoint vertex sets covering the graph).
	Un, Vn []int
	// Base is Gn: all input-independent edges, including the cut edges.
	Base *graph.Graph
	// CutEdges lists the edges between Un and Vn.
	CutEdges [][2]int
	// Gx returns gn(x): input-dependent edges within Un.
	Gx func(x *bitstring.Bits) [][2]int
	// Hy returns hn(y): input-dependent edges within Vn.
	Hy func(y *bitstring.Bits) [][2]int
}

// Build constructs Gn(x, y): the base graph plus gn(x) and hn(y). Nil
// inputs are errors.
func (r *Reduction) Build(x, y *bitstring.Bits) (*graph.Graph, error) {
	if x == nil || y == nil {
		return nil, fmt.Errorf("reduction %s: nil input", r.Name)
	}
	if x.Len() != r.K || y.Len() != r.K {
		return nil, fmt.Errorf("reduction %s: input lengths %d,%d, want %d", r.Name, x.Len(), y.Len(), r.K)
	}
	g := r.Base.Clone()
	for _, e := range r.Gx(x) {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("reduction %s: gn(x) edge: %w", r.Name, err)
		}
	}
	for _, e := range r.Hy(y) {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("reduction %s: hn(y) edge: %w", r.Name, err)
		}
	}
	return g, nil
}

// Verify checks Definition 3's conditions for one input pair: the diameter
// of Gn(x, y) must be <= D1 when the inputs are disjoint and >= D2
// otherwise. (The constructions in this package satisfy the stronger
// property that the full diameter, not just the cross-pair distance,
// respects the thresholds, so a diameter algorithm distinguishes the two
// cases.)
func (r *Reduction) Verify(x, y *bitstring.Bits) error {
	g, err := r.Build(x, y)
	if err != nil {
		return err
	}
	diam, err := g.Diameter()
	if err != nil {
		return fmt.Errorf("reduction %s: %w", r.Name, err)
	}
	disj, err := bitstring.Disj(x, y)
	if err != nil {
		return fmt.Errorf("reduction %s: %w", r.Name, err)
	}
	if disj == 1 {
		if diam > r.D1 {
			return fmt.Errorf("reduction %s: disjoint inputs give diameter %d > d1=%d", r.Name, diam, r.D1)
		}
		return nil
	}
	if diam < r.D2 {
		return fmt.Errorf("reduction %s: intersecting inputs give diameter %d < d2=%d", r.Name, diam, r.D2)
	}
	return nil
}

// SideOf returns a lookup table: side[v] = 0 for Un, 1 for Vn.
func (r *Reduction) SideOf() []int {
	side := make([]int, r.Base.N())
	for i := range side {
		side[i] = -1
	}
	for _, u := range r.Un {
		side[u] = 0
	}
	for _, v := range r.Vn {
		side[v] = 1
	}
	return side
}
