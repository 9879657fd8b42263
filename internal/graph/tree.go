package graph

import "fmt"

// BFSTree is a rooted spanning tree produced by a breadth-first search,
// together with the data the paper's procedures need: per-vertex depth
// (distance to the root), parent pointers, ordered child lists, and the
// Euler tour used for DFS numbering (Definition 1 of the paper).
type BFSTree struct {
	Root   int
	Parent []int   // Parent[root] == -1
	Depth  []int   // Depth[v] == d(root, v)
	Child  [][]int // children sorted by vertex id
}

// NewBFSTree builds the deterministic BFS tree rooted at root.
func NewBFSTree(g *Graph, root int) (*BFSTree, error) {
	dist, parent := g.BFS(root)
	n := g.N()
	t := &BFSTree{
		Root:   root,
		Parent: parent,
		Depth:  dist,
		Child:  make([][]int, n),
	}
	for v := 0; v < n; v++ {
		if dist[v] == -1 {
			return nil, ErrDisconnected
		}
		if p := parent[v]; p >= 0 {
			t.Child[p] = append(t.Child[p], v)
		}
	}
	// Children are discovered in ascending vertex order because adjacency
	// lists are sorted, but assert the invariant rather than rely on it.
	for v := range t.Child {
		for i := 1; i < len(t.Child[v]); i++ {
			if t.Child[v][i-1] >= t.Child[v][i] {
				return nil, fmt.Errorf("graph: unsorted child list at %d", v)
			}
		}
	}
	return t, nil
}

// EulerTour returns the sequence of vertices visited by a depth-first
// traversal of the tree starting and ending at the root, visiting children
// in ascending id order. The tour has 2(n-1)+1 entries (each edge is walked
// down once and up once); consecutive entries are adjacent in the tree.
//
// tour[t] is the vertex occupied after t steps; tour[0] == root.
func (t *BFSTree) EulerTour() []int {
	n := len(t.Parent)
	tour := make([]int, 0, 2*n)
	// Iterative DFS over the explicit child lists.
	type frame struct {
		v    int
		next int // index of next child to descend into
	}
	stack := []frame{{v: t.Root}}
	tour = append(tour, t.Root)
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(t.Child[top.v]) {
			c := t.Child[top.v][top.next]
			top.next++
			stack = append(stack, frame{v: c})
			tour = append(tour, c)
			continue
		}
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			tour = append(tour, stack[len(stack)-1].v)
		}
	}
	return tour
}

// DFSNumbering returns tau, the DFS(leader)-number of each vertex per
// Definition 1: tau[v] is the number of steps needed to reach v for the
// first time on the Euler tour (the length of the walk from the root to v on
// a DFS traversal). tau[root] == 0.
func (t *BFSTree) DFSNumbering() []int {
	tour := t.EulerTour()
	tau := make([]int, len(t.Parent))
	for i := range tau {
		tau[i] = -1
	}
	for step, v := range tour {
		if tau[v] == -1 {
			tau[v] = step
		}
	}
	return tau
}

// TourLength returns the number of steps of the full Euler tour, 2(n-1).
func (t *BFSTree) TourLength() int { return 2 * (len(t.Parent) - 1) }

// SetS returns the paper's set S(u) (Definition 2): the vertices v whose
// DFS number tau(v) lies within the window of 2d tour steps starting at
// tau(u), wrapping around the end of the tour (the paper writes "mod 2n";
// the implemented tour has exactly 2(n-1) steps and the wrap restarts the
// traversal from the leader, revisiting vertices in tau order).
func (t *BFSTree) SetS(u, d int) []int {
	tau := t.DFSNumbering()
	total := t.TourLength()
	var out []int
	width := 2 * d
	for v, tv := range tau {
		delta := tv - tau[u]
		if delta < 0 {
			delta += total
		}
		if delta <= width {
			out = append(out, v)
		}
	}
	return out
}
