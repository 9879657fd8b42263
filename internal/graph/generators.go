package graph

import (
	"fmt"
	"math/rand"
)

// The structured generators below (Path, Cycle, Grid, Torus) know their
// degree sequences in advance and preallocate the adjacency arena, so
// building even a million-vertex graph costs O(1) allocations per vertex —
// the scale floor the frontier-scheduled engine is designed to feed on.

// Path returns the path graph P_n: 0-1-2-...-(n-1). Diameter n-1.
func Path(n int) *Graph {
	g := New(n)
	if n >= 2 {
		g.preallocAdjacency(2*(n-1), func(v int) int {
			if v == 0 || v == n-1 {
				return 1
			}
			return 2
		})
	}
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

// Cycle returns the cycle C_n (n >= 3). Diameter floor(n/2).
func Cycle(n int) *Graph {
	if n < 3 {
		return Path(n)
	}
	g := New(n)
	g.preallocAdjacency(2*n, func(int) int { return 2 })
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	g.MustAddEdge(n-1, 0)
	return g
}

// Star returns the star K_{1,n-1} with center 0. Diameter 2 (for n >= 3).
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, i)
	}
	return g
}

// Complete returns the complete graph K_n. Diameter 1 (for n >= 2).
func Complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddEdge(i, j)
		}
	}
	return g
}

// Grid returns the rows x cols grid graph. Diameter rows+cols-2. Negative
// dimensions are clamped to 0.
func Grid(rows, cols int) *Graph {
	rows, cols = max(rows, 0), max(cols, 0)
	g := New(rows * cols)
	if rows > 0 && cols > 0 {
		horiz := rows * (cols - 1)
		vert := (rows - 1) * cols
		g.preallocAdjacency(2*(horiz+vert), func(v int) int {
			r, c := v/cols, v%cols
			d := 0
			if c > 0 {
				d++
			}
			if c+1 < cols {
				d++
			}
			if r > 0 {
				d++
			}
			if r+1 < rows {
				d++
			}
			return d
		})
	}
	GridEdges(rows, cols)(g.MustAddEdge)
	return g
}

// Torus returns the rows x cols torus (grid with wraparound). For dimensions
// below 3 the wraparound edge coincides with an existing edge (or is a
// self-loop); those degenerate edges are skipped, so e.g. Torus(2, k) equals
// the 2 x k cylinder and Torus(1, k) the cycle C_k — the generator never
// panics on small inputs. Negative dimensions are clamped to 0.
func Torus(rows, cols int) *Graph {
	rows, cols = max(rows, 0), max(cols, 0)
	g := New(rows * cols)
	// Every torus vertex has degree 4; degenerate dimensions (< 3) skip
	// coinciding wraparound edges, leaving some declared capacity unused —
	// harmless, the arena is simply a little larger than needed.
	g.preallocAdjacency(4*rows*cols, func(int) int { return 4 })
	id := func(r, c int) int { return r*cols + c }
	add := func(u, v int) {
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			add(id(r, c), id(r, (c+1)%cols))
			add(id(r, c), id((r+1)%rows, c))
		}
	}
	return g
}

// maxHypercubeDim is the largest hypercube dimension whose 2^dim·dim
// directed edges fit the int32 CSR behind every Topology (26·2^26 < 2^31).
const maxHypercubeDim = 26

// Hypercube returns the dim-dimensional hypercube on 2^dim vertices.
// Diameter dim. It errors, without building anything, for a negative dim
// and for dim > 26, whose edges would not fit the int32 CSR.
func Hypercube(dim int) (*Graph, error) {
	if dim < 0 || dim > maxHypercubeDim {
		return nil, fmt.Errorf("graph: hypercube dimension %d outside [0, %d]", dim, maxHypercubeDim)
	}
	n := 1 << dim
	g := New(n)
	for v := 0; v < n; v++ {
		for b := 0; b < dim; b++ {
			w := v ^ (1 << b)
			if v < w {
				g.MustAddEdge(v, w)
			}
		}
	}
	return g, nil
}

// CompleteBinaryTree returns a complete binary tree with n vertices
// (heap-indexed: children of v are 2v+1 and 2v+2).
func CompleteBinaryTree(n int) *Graph {
	g := New(n)
	// Degree of v: one parent edge (v > 0) plus one edge per existing child
	// (children of v are 2v+1 and 2v+2); the total over all vertices is the
	// usual tree bound 2(n-1).
	g.preallocAdjacency(2*(n-1), func(v int) int {
		d := 0
		if v > 0 {
			d++
		}
		if 2*v+1 < n {
			d++
		}
		if 2*v+2 < n {
			d++
		}
		return d
	})
	for v := 1; v < n; v++ {
		g.MustAddEdge(v, (v-1)/2)
	}
	return g
}

// Barbell returns two cliques of size cliqueSize joined by a path with
// pathLen internal vertices. Diameter pathLen + 3 (for cliqueSize >= 2).
// Useful as a small-n, large-D workload. cliqueSize below 1 is clamped to 1
// (the two "cliques" degenerate to the path endpoints), and a negative
// pathLen to 0 (the cliques joined by one edge).
func Barbell(cliqueSize, pathLen int) *Graph {
	cliqueSize, pathLen = max(cliqueSize, 1), max(pathLen, 0)
	n := 2*cliqueSize + pathLen
	g := New(n)
	// Clique members have degree cliqueSize-1, path vertices degree 2, and
	// the two chain endpoints (vertex 0 and the first vertex of the second
	// clique) carry one extra chain edge each.
	k := cliqueSize
	g.preallocAdjacency(2*(k*(k-1)+pathLen+1), func(v int) int {
		switch {
		case v < k:
			if v == 0 {
				return k
			}
			return k - 1
		case v < k+pathLen:
			return 2
		case v == k+pathLen:
			return k
		default:
			return k - 1
		}
	})
	for i := 0; i < cliqueSize; i++ {
		for j := i + 1; j < cliqueSize; j++ {
			g.MustAddEdge(i, j)
			g.MustAddEdge(cliqueSize+pathLen+i, cliqueSize+pathLen+j)
		}
	}
	prev := 0
	for i := 0; i < pathLen; i++ {
		g.MustAddEdge(prev, cliqueSize+i)
		prev = cliqueSize + i
	}
	g.MustAddEdge(prev, cliqueSize+pathLen)
	return g
}

// Caterpillar returns a path of spineLen vertices where every spine vertex
// carries legsPerSpine pendant leaves. n = spineLen*(1+legsPerSpine),
// diameter spineLen+1 (for legsPerSpine >= 1, spineLen >= 2). This family
// lets experiments scale n while holding D fixed, or scale D while holding
// n fixed. Negative arguments are clamped to 0.
func Caterpillar(spineLen, legsPerSpine int) *Graph {
	spineLen, legsPerSpine = max(spineLen, 0), max(legsPerSpine, 0)
	n := spineLen * (1 + legsPerSpine)
	g := New(n)
	for i := 0; i+1 < spineLen; i++ {
		g.MustAddEdge(i, i+1)
	}
	next := spineLen
	for i := 0; i < spineLen; i++ {
		for l := 0; l < legsPerSpine; l++ {
			g.MustAddEdge(i, next)
			next++
		}
	}
	return g
}

// RandomConnected returns a connected graph on n vertices: a random spanning
// tree (random parent attachment) plus each remaining pair independently
// with probability p. Deterministic for a given seed. A negative n is
// clamped to 0, as New clamps it.
func RandomConnected(n int, p float64, seed int64) *Graph {
	n = max(n, 0)
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := perm[i]
		v := perm[rng.Intn(i)]
		g.MustAddEdge(u, v)
	}
	if p > 0 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if !g.HasEdge(u, v) && rng.Float64() < p {
					g.MustAddEdge(u, v)
				}
			}
		}
	}
	return g
}

// RandomTree returns a uniform random attachment tree on n vertices (a
// negative n is clamped to 0).
func RandomTree(n int, seed int64) *Graph {
	return RandomConnected(n, 0, seed)
}

// SmallWorld returns a ring lattice where each vertex connects to its k
// nearest neighbours on each side, with extra random chords added with
// probability p per vertex (Watts-Strogatz-style but additive, so the graph
// stays connected). Low diameter for moderate p. A k below 1 is clamped to
// 1, the plain ring, which keeps the graph connected.
func SmallWorld(n, k int, p float64, seed int64) *Graph {
	k = max(k, 1)
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			v := (u + j) % n
			if !g.HasEdge(u, v) && u != v {
				g.MustAddEdge(u, v)
			}
		}
	}
	for u := 0; u < n; u++ {
		if rng.Float64() < p {
			v := rng.Intn(n)
			if v != u && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// WithWeights returns a weighted deep copy of g: every edge receives an
// independent uniform weight in [1, maxW], assigned in canonical edge order
// (so the result is deterministic for a given seed). maxW <= 1 still
// materializes the weight tables (all weights 1), which lets tests exercise
// the weighted code paths on effectively-unweighted graphs.
func WithWeights(g *Graph, maxW int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	c := g.Clone()
	c.materializeWeights()
	for _, e := range c.Edges() {
		w := 1
		if maxW > 1 {
			w = 1 + rng.Intn(maxW)
		}
		c.setWeight(e[0], e[1], w)
	}
	return c
}

// setWeight overwrites the weight of the existing edge {u, v} on a graph
// with materialized weight tables (construction helper for WithWeights).
func (g *Graph) setWeight(u, v, w int) {
	for i, x := range g.adj[u] {
		if x == v {
			g.wts[u][i] = w
		}
	}
	for i, x := range g.adj[v] {
		if x == u {
			g.wts[v][i] = w
		}
	}
}

// RandomRegular returns a connected random d-regular graph on n vertices via
// the configuration model: d stubs per vertex are paired uniformly, the
// pairing is rejected if it produces self-loops, duplicate edges or a
// disconnected graph, and the sampling retries with fresh randomness.
// Deterministic for a given seed. n*d must be even and 0 <= d < n; it errors
// when the parameters are infeasible or no simple connected pairing is found
// (vanishingly unlikely for d >= 3 and moderate n).
func RandomRegular(n, d int, seed int64) (*Graph, error) {
	if d < 0 || d >= n && !(n <= 1 && d == 0) {
		return nil, fmt.Errorf("graph: no %d-regular graph on %d vertices", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: n*d = %d*%d is odd", n, d)
	}
	if d == 0 {
		if n > 1 {
			return nil, fmt.Errorf("graph: 0-regular graph on %d > 1 vertices is disconnected", n)
		}
		return New(n), nil
	}
	rng := rand.New(rand.NewSource(seed))
	stubs := make([]int, n*d)
	for attempt := 0; attempt < 1000; attempt++ {
		for i := range stubs {
			stubs[i] = i / d
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		g := New(n)
		// Every vertex ends at degree exactly d when the pairing succeeds;
		// a failed attempt abandons the graph (and its arena) anyway.
		g.preallocAdjacency(n*d, func(int) int { return d })
		ok := true
		for i := 0; i < len(stubs) && ok; i += 2 {
			u, v := stubs[i], stubs[i+1]
			ok = u != v && !g.HasEdge(u, v)
			if ok {
				g.MustAddEdge(u, v)
			}
		}
		if ok && g.Connected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: no simple connected %d-regular pairing on %d vertices found", d, n)
}

// LollipopWithDiameter returns a connected graph with n vertices whose
// diameter is exactly wantD (2 <= wantD <= n-1): a path of wantD+1 vertices
// with the remaining n-wantD-1 vertices attached to one end as a clique
// blended into the path head. It errors when the parameters are infeasible.
func LollipopWithDiameter(n, wantD int) (*Graph, error) {
	if wantD < 1 || wantD > n-1 {
		return nil, fmt.Errorf("graph: cannot build %d vertices with diameter %d", n, wantD)
	}
	g := New(n)
	// Path 0..wantD.
	for i := 0; i < wantD; i++ {
		g.MustAddEdge(i, i+1)
	}
	// Each remaining vertex attaches to path vertices 0 and 1 and to every
	// other remaining vertex, so it is at distance exactly wantD from vertex
	// wantD (through vertex 1) and at distance 1 from everything near the
	// head; the overall diameter stays exactly wantD.
	for v := wantD + 1; v < n; v++ {
		g.MustAddEdge(v, 0)
		g.MustAddEdge(v, 1)
		for w := wantD + 1; w < v; w++ {
			g.MustAddEdge(v, w)
		}
	}
	return g, nil
}
