// Package graph provides the undirected-graph substrate used by every other
// package in this repository: adjacency representation, breadth-first search,
// BFS trees and their Euler tours, eccentricity and diameter reference
// algorithms (unweighted and weighted), and the graph generators used in the
// experiments.
//
// Vertices are dense integers in [0, N). All graphs are simple and
// undirected, matching the networks considered in the paper. Edges carry
// positive integer weights; a graph built with AddEdge alone is unweighted
// (every weight 1) and stores no weight tables at all, so the unweighted
// representation and behavior are identical to the pre-weight code.
// Weighted distance parameters (WeightedDiameter, Dijkstra, FloydWarshall)
// follow the weighted-CONGEST extensions of the paper's framework.
package graph

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Graph is a simple undirected graph on vertices 0..N-1 stored as sorted
// adjacency lists. The zero value is an empty graph with no vertices.
//
// Construction (AddVertex, AddEdge) is single-goroutine; once construction
// is done, any number of goroutines may read the graph concurrently — the
// lazy adjacency sort behind Neighbors/BFS is synchronized, so e.g.
// independent sessions or parallel experiment trials can share one graph.
type Graph struct {
	adj   [][]int
	edges int

	// wts[u][i] is the weight of the edge to adj[u][i]. It is nil for
	// unweighted graphs (every edge weight 1): the unweighted fast paths
	// never touch it, so graphs built with AddEdge alone behave bit-for-bit
	// like the pre-weight representation.
	wts [][]int

	sorted atomic.Bool
	sortMu sync.Mutex
}

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.edges }

// preallocAdjacency carves per-vertex adjacency capacity out of one shared
// arena: adj[v] becomes a zero-length view with capacity deg(v), so the
// following AddEdge calls append in place and the whole construction costs
// O(1) allocations per vertex instead of O(log deg) reallocations each.
// total must equal the sum of the declared degrees. Generators that know
// their degree sequence (Path, Cycle, Grid, Torus) use this to build
// million-vertex graphs allocation-lean; a declared degree that turns out
// too small is not an error — that vertex's append simply falls back to a
// private reallocation. Only meaningful on a graph with no edges yet.
func (g *Graph) preallocAdjacency(total int, deg func(v int) int) {
	if g.edges != 0 || total <= 0 {
		return
	}
	arena := make([]int, total)
	off := 0
	for v := range g.adj {
		d := deg(v)
		if off+d > len(arena) {
			return // inconsistent declaration; keep the remaining rows nil
		}
		g.adj[v] = arena[off : off : off+d]
		off += d
	}
}

// AddVertex appends a new isolated vertex and returns its index.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	if g.wts != nil {
		g.wts = append(g.wts, nil)
	}
	return len(g.adj) - 1
}

// AddEdge inserts the undirected edge {u, v} with weight 1. Self-loops and
// duplicate edges are rejected with an error so construction bugs surface
// early.
func (g *Graph) AddEdge(u, v int) error {
	switch {
	case u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj):
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, len(g.adj))
	case u == v:
		return fmt.Errorf("graph: self-loop at %d", u)
	case g.HasEdge(u, v):
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	if g.wts != nil {
		g.wts[u] = append(g.wts[u], 1)
		g.wts[v] = append(g.wts[v], 1)
	}
	g.edges++
	g.sorted.Store(false)
	return nil
}

// MustAddEdge is AddEdge for construction code where the edge is known to be
// valid; it panics on error (programmer error, not runtime input).
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		// Unreachable from facade data: generators and reduction builders
		// add only edges that are valid by construction of their clamped sizes.
		panic(err)
	}
}

// AddWeightedEdge inserts the undirected edge {u, v} with the given positive
// integer weight. The first weight other than 1 materializes the weight
// tables (all previously added edges keep weight 1); until then the graph
// stays in the unweighted representation.
func (g *Graph) AddWeightedEdge(u, v, w int) error {
	if w < 1 {
		return fmt.Errorf("graph: edge {%d,%d} weight %d < 1", u, v, w)
	}
	if w > 1 {
		g.materializeWeights()
	}
	if err := g.AddEdge(u, v); err != nil {
		return err
	}
	if g.wts != nil {
		g.wts[u][len(g.wts[u])-1] = w
		g.wts[v][len(g.wts[v])-1] = w
	}
	return nil
}

// MustAddWeightedEdge is AddWeightedEdge panicking on error.
func (g *Graph) MustAddWeightedEdge(u, v, w int) {
	if err := g.AddWeightedEdge(u, v, w); err != nil {
		// Unreachable from facade data: callers pass weights of at least 1
		// on edges that are valid by construction.
		panic(err)
	}
}

// materializeWeights switches the graph to the weighted representation,
// backfilling weight 1 for every edge added so far.
func (g *Graph) materializeWeights() {
	if g.wts != nil {
		return
	}
	g.wts = make([][]int, len(g.adj))
	for u, a := range g.adj {
		w := make([]int, len(a))
		for i := range w {
			w[i] = 1
		}
		g.wts[u] = w
	}
}

// Weighted reports whether the graph carries materialized edge weights (at
// least one edge was added with weight > 1). Unweighted graphs behave as if
// every edge had weight 1.
func (g *Graph) Weighted() bool { return g.wts != nil }

// Weight returns the weight of edge {u, v}: 1 for edges of an unweighted
// graph, 0 when {u, v} is not an edge.
func (g *Graph) Weight(u, v int) int {
	if u < 0 || u >= len(g.adj) {
		return 0
	}
	// Same synchronization story as HasEdge: the scan must not race with a
	// reader's lazy in-place sort.
	if !g.sorted.Load() {
		g.sortMu.Lock()
		defer g.sortMu.Unlock()
	}
	for i, w := range g.adj[u] {
		if w == v {
			if g.wts == nil {
				return 1
			}
			return g.wts[u][i]
		}
	}
	return 0
}

// NeighborWeights returns the weights aligned with Neighbors(u), or nil for
// an unweighted graph (all weights 1). The returned slice is owned by the
// graph and must not be modified.
func (g *Graph) NeighborWeights(u int) []int {
	if g.wts == nil {
		return nil
	}
	g.ensureSorted()
	return g.wts[u]
}

// MaxWeight returns the largest edge weight (1 for unweighted graphs and
// graphs without edges).
func (g *Graph) MaxWeight() int {
	max := 1
	for _, ws := range g.wts {
		for _, w := range ws {
			if w > max {
				max = w
			}
		}
	}
	return max
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	// The element scan must not race with another reader's lazy in-place
	// sort. Once the graph is sorted the atomic fast path applies (the
	// engine's per-message validation lands here); before that — i.e.
	// during construction, where AddEdge's duplicate check calls this per
	// edge — take the sort mutex rather than ensureSorted, which would
	// re-sort the whole graph on every probe.
	if !g.sorted.Load() {
		g.sortMu.Lock()
		defer g.sortMu.Unlock()
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of u in ascending order. The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int {
	g.ensureSorted()
	return g.adj[u]
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

func (g *Graph) ensureSorted() {
	if g.sorted.Load() {
		return
	}
	g.sortMu.Lock()
	defer g.sortMu.Unlock()
	if g.sorted.Load() {
		return
	}
	if g.wts == nil {
		for _, a := range g.adj {
			sort.Ints(a)
		}
	} else {
		// Weighted: the weight entries must follow their adjacency entries.
		for u, a := range g.adj {
			sort.Sort(&adjWeightOrder{ids: a, wts: g.wts[u]})
		}
	}
	g.sorted.Store(true)
}

// adjWeightOrder co-sorts one vertex's adjacency list and its aligned weight
// list by neighbor id (ids are unique: the graph is simple).
type adjWeightOrder struct {
	ids []int
	wts []int
}

func (s *adjWeightOrder) Len() int           { return len(s.ids) }
func (s *adjWeightOrder) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s *adjWeightOrder) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.wts[i], s.wts[j] = s.wts[j], s.wts[i]
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	// Sort first (synchronized): the element copy below must not race with
	// another reader's lazy in-place sort.
	g.ensureSorted()
	c := &Graph{adj: make([][]int, len(g.adj)), edges: g.edges}
	c.sorted.Store(true)
	for i, a := range g.adj {
		c.adj[i] = append([]int(nil), a...)
	}
	if g.wts != nil {
		c.wts = make([][]int, len(g.wts))
		for i, w := range g.wts {
			c.wts[i] = append([]int(nil), w...)
		}
	}
	return c
}

// Edges returns every edge {u, v} with u < v, in lexicographic order.
func (g *Graph) Edges() [][2]int {
	g.ensureSorted()
	out := make([][2]int, 0, g.edges)
	for u, a := range g.adj {
		for _, v := range a {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// ErrDisconnected is returned by algorithms that require a connected graph.
var ErrDisconnected = errors.New("graph: graph is not connected")

// BFS runs a breadth-first search from src and returns the distance slice
// (distance -1 for unreachable vertices) and the BFS parent slice (parent -1
// for src and unreachable vertices). The parent of v is canonically the
// smallest-id neighbor of v at distance d(src,v)-1; this matches the parent
// choice of the distributed BFS program in internal/congest, so reference
// trees and simulated trees coincide exactly.
func (g *Graph) BFS(src int) (dist, parent []int) {
	n := len(g.adj)
	dist = make([]int, n)
	parent = make([]int, n)
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	g.ensureSorted()
	dist[src] = 0
	queue := make([]int, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	// Canonical parents: smallest-id neighbor one level closer to src.
	for v := 0; v < n; v++ {
		if v == src || dist[v] <= 0 {
			continue
		}
		for _, u := range g.adj[v] { // ascending id
			if dist[u] == dist[v]-1 {
				parent[v] = u
				break
			}
		}
	}
	return dist, parent
}

// Connected reports whether the graph is connected. The empty graph counts
// as connected.
func (g *Graph) Connected() bool {
	if len(g.adj) == 0 {
		return true
	}
	dist, _ := g.BFS(0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// Eccentricity returns max_v d(src, v). It returns an error if some vertex is
// unreachable from src.
func (g *Graph) Eccentricity(src int) (int, error) {
	dist, _ := g.BFS(src)
	ecc := 0
	for _, d := range dist {
		if d == -1 {
			return 0, ErrDisconnected
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, nil
}

// Diameter returns the exact diameter by running a BFS from every vertex
// (the O(nm) sequential reference algorithm). The diameter of a graph with
// fewer than two vertices is 0.
func (g *Graph) Diameter() (int, error) {
	if len(g.adj) == 0 {
		return 0, nil
	}
	diam := 0
	for v := range g.adj {
		ecc, err := g.Eccentricity(v)
		if err != nil {
			return 0, err
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam, nil
}

// Radius returns min_v ecc(v). Like Diameter, the radius of a graph with
// fewer than two vertices is 0 (documented convention, asserted by the
// degenerate-input table tests alongside the generator edge cases).
func (g *Graph) Radius() (int, error) {
	if len(g.adj) == 0 {
		return 0, nil
	}
	radius := -1
	for v := range g.adj {
		ecc, err := g.Eccentricity(v)
		if err != nil {
			return 0, err
		}
		if radius == -1 || ecc < radius {
			radius = ecc
		}
	}
	return radius, nil
}

// AllEccentricities returns ecc(v) for every v.
func (g *Graph) AllEccentricities() ([]int, error) {
	out := make([]int, len(g.adj))
	for v := range g.adj {
		ecc, err := g.Eccentricity(v)
		if err != nil {
			return nil, err
		}
		out[v] = ecc
	}
	return out, nil
}

// Distance returns d(u, v), or an error if v is unreachable from u.
func (g *Graph) Distance(u, v int) (int, error) {
	dist, _ := g.BFS(u)
	if dist[v] == -1 {
		return 0, ErrDisconnected
	}
	return dist[v], nil
}

// DistanceMatrix returns the full APSP matrix via n BFS runs.
func (g *Graph) DistanceMatrix() ([][]int, error) {
	n := len(g.adj)
	mat := make([][]int, n)
	for v := 0; v < n; v++ {
		dist, _ := g.BFS(v)
		for _, d := range dist {
			if d == -1 {
				return nil, ErrDisconnected
			}
		}
		mat[v] = dist
	}
	return mat, nil
}
