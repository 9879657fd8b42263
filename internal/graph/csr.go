package graph

// Compressed sparse row (CSR) adjacency: the packed, read-only form of a
// graph. Where Graph stores one slice per vertex (flexible during
// construction, pointer-heavy at scale), a CSR packs the whole adjacency
// structure into three flat int32 arrays —
//
//	Offsets : n+1 row offsets; row v is Targets[Offsets[v]:Offsets[v+1]]
//	Targets : 2m neighbor ids, ascending within each row
//	Weights : 2m edge weights aligned with Targets (nil when unweighted)
//
// — so a million-vertex network costs three allocations instead of
// millions, fits in a fraction of the memory, and scans with perfect
// locality. congest.Topology is the same layout and nothing more: it shares
// a CSR's Offsets and copies Targets (and Weights) into int-typed arenas,
// since node programs address neighbors as int. This type is the compact
// reference form used by the scale tests, the metropolis example and any
// caller that wants an oracle over graphs too large for per-vertex slices.

import "fmt"

// CSR is the packed adjacency form of a simple undirected graph. All
// fields are read-only after BuildCSR.
type CSR struct {
	Offsets []int32 // len n+1
	Targets []int32 // len 2m, each row ascending
	Weights []int32 // aligned with Targets; nil for unweighted graphs
}

// BuildCSR packs the graph into CSR form (three allocations, one adjacency
// pass). Vertex count and total directed degree must fit in int32 — the
// same bound the engine's vertex ids already assume.
func (g *Graph) BuildCSR() (*CSR, error) {
	n := g.N()
	total := 2 * g.M()
	if int64(n)+1 > int64(1)<<31-1 || int64(total) > int64(1)<<31-1 {
		return nil, fmt.Errorf("graph: %d vertices / %d directed edges exceed the int32 CSR limit", n, total)
	}
	g.ensureSorted()
	c := &CSR{
		Offsets: make([]int32, n+1),
		Targets: make([]int32, total),
	}
	if g.wts != nil {
		c.Weights = make([]int32, total)
	}
	off := int32(0)
	for v := 0; v < n; v++ {
		c.Offsets[v] = off
		row := g.adj[v]
		for i := range row {
			c.Targets[off] = int32(row[i])
			if c.Weights != nil {
				w := g.wts[v][i]
				if int64(w) > int64(1)<<31-1 {
					return nil, fmt.Errorf("graph: edge weight %d exceeds the int32 CSR limit", w)
				}
				c.Weights[off] = int32(w)
			}
			off++
		}
	}
	c.Offsets[n] = off
	return c, nil
}

// N returns the number of vertices.
func (c *CSR) N() int { return len(c.Offsets) - 1 }

// M returns the number of (undirected) edges.
func (c *CSR) M() int { return len(c.Targets) / 2 }

// Neighbors returns row v: the ascending neighbor ids of v as a view into
// the shared arena. It must not be modified.
func (c *CSR) Neighbors(v int) []int32 {
	return c.Targets[c.Offsets[v]:c.Offsets[v+1]]
}

// NeighborWeights returns the weights aligned with Neighbors(v), or nil for
// an unweighted CSR.
func (c *CSR) NeighborWeights(v int) []int32 {
	if c.Weights == nil {
		return nil
	}
	return c.Weights[c.Offsets[v]:c.Offsets[v+1]]
}

// Degree returns the degree of v.
func (c *CSR) Degree(v int) int { return int(c.Offsets[v+1] - c.Offsets[v]) }

// HasEdge reports whether {u, v} is an edge, by binary search in row u.
func (c *CSR) HasEdge(u, v int) bool {
	if u < 0 || u >= c.N() {
		return false
	}
	row := c.Neighbors(u)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(row[mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && int(row[lo]) == v
}

// BFSInto runs a breadth-first search from src into caller-owned buffers:
// dist (len n, filled with hop distances, -1 for unreachable) and queue
// (len n scratch). It allocates nothing, which is what lets the scale tests
// and the metropolis example compute distance oracles on million-vertex
// graphs without doubling their memory footprint. It returns the number of
// reached vertices and the largest finite distance (the eccentricity of src
// when the graph is connected).
func (c *CSR) BFSInto(src int, dist []int32, queue []int32) (reached int, ecc int32) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = queue[:0]
	queue = append(queue, int32(src))
	reached = 1
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range c.Targets[c.Offsets[u]:c.Offsets[u+1]] {
			if dist[v] == -1 {
				dist[v] = du + 1
				if dist[v] > ecc {
					ecc = dist[v]
				}
				queue = append(queue, v)
				reached++
			}
		}
	}
	return reached, ecc
}
