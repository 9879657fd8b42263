package congest

import (
	"fmt"

	"qcongest/internal/graph"
)

// PreInfo is the output of the classical preprocessing the paper assumes
// before its algorithms start (Section 3): an elected leader, the BFS tree
// rooted at it, and d = ecc(leader), known to every node. The arrays are
// indexed by vertex; entry v is information held by node v (the simulator
// keeps them centrally for convenience, but each entry was computed by the
// distributed programs).
type PreInfo struct {
	Leader   int
	Parent   []int   // BFS(leader) parent, -1 at leader
	Depth    []int   // distance to leader
	Children [][]int // BFS(leader) children, ascending
	D        int     // d = ecc(leader); D <= diameter <= 2d
}

// Preprocess runs leader election, the Figure 1 BFS construction with
// eccentricity convergecast, and a broadcast of d = ecc(leader). It returns
// the gathered information and the total metrics (O(D) rounds; all bit
// counts are encoded wire lengths of the phases' typed messages).
func Preprocess(g *graph.Graph, opts ...Option) (*PreInfo, Metrics, error) {
	topo, err := NewTopology(g)
	if err != nil {
		return nil, Metrics{}, err
	}
	return PreprocessOn(topo, opts...)
}

// PreprocessOn is Preprocess on an already-built topology: none of the
// three phases re-validates or re-scans the graph.
func PreprocessOn(topo *Topology, opts ...Option) (*PreInfo, Metrics, error) {
	var total Metrics
	n := topo.N()
	if n == 0 {
		return nil, total, errEmptyGraph
	}

	// Phase 1: leader election by max-id flooding.
	elect, m, err := runOnce(topo, func(v int) *LeaderElectNode { return NewLeaderElectNode() }, 4*n+16, "leader election", opts...)
	if err != nil {
		return nil, total, err
	}
	total.Add(m)
	leader := -1
	for v, l := range elect {
		if leader == -1 {
			leader = l.Leader
		} else if l.Leader != leader {
			return nil, total, fmt.Errorf("congest: leader election disagreement at node %d", v)
		}
	}

	// Phase 2: BFS(leader) with child discovery and ecc convergecast.
	info, m, err := bfsTree(topo, leader, "bfs construction", opts...)
	if err != nil {
		return nil, total, err
	}
	total.Add(m)

	// Phase 3: broadcast d = ecc(leader) down the tree so every node can
	// schedule the fixed-length phases that follow. A run that completes
	// has delivered d everywhere: a vertex finishes only by forwarding the
	// value it received.
	m, err = newTreeBcast(topo, info, "broadcast d", opts...).run(info.D)
	if err != nil {
		return nil, total, err
	}
	total.Add(m)
	return info, total, nil
}

// bfsTree runs the Figure 1 BFS from root (child discovery and ecc
// convergecast) and reads the tree out as a PreInfo rooted at root: every
// vertex's parent, depth and ascending children, and D = ecc(root). It is
// the one BFS-tree phase: PreprocessOn's phase 2 and PrepareApproxOn's
// Step 3.
func bfsTree(topo *Topology, root int, what string, opts ...Option) (*PreInfo, Metrics, error) {
	n := topo.N()
	bfs, m, err := runOnce(topo, func(v int) *BFSNode { return NewBFSNode(root) }, 8*n+16, what, opts...)
	if err != nil {
		return nil, m, err
	}
	info := &PreInfo{
		Leader:   root,
		Parent:   make([]int, n),
		Depth:    make([]int, n),
		Children: make([][]int, n),
		D:        bfs[root].Ecc,
	}
	for v, b := range bfs {
		info.Parent[v], info.Depth[v], info.Children[v] = b.Parent, b.Dist, b.Children
	}
	return info, m, nil
}

// TokenWalkOn executes the Figure 2 Step 1 walk (L token steps from start
// on the tree described by info, with the given per-node child lists) on
// an already-built topology and returns tau' (-1 for unvisited vertices):
// one Eval of a WalkSession.
func TokenWalkOn(topo *Topology, info *PreInfo, children [][]int, start, steps int, opts ...Option) ([]int, Metrics, error) {
	return NewWalkSession(topo, info, children, steps, opts...).Eval(start)
}

// WaveOn executes the Figure 2 Step 2 wave process for the initiators
// marked in tau (tau[v] >= 0 means v in S with tau'(v) = tau[v]) on an
// already-built topology and returns each node's dv: one run of the wave
// half of an EccSession.
func WaveOn(topo *Topology, tau []int, duration int, opts ...Option) ([]int, Metrics, error) {
	return newWaveProcess(topo, duration, opts...).run(tau)
}

// ConvergecastMaxOn aggregates max(values) at the root of the tree info
// describes, on an already-built topology, and returns (max, witness): one
// max treeAgg run. A nil witnesses lets every vertex witness itself.
func ConvergecastMaxOn(topo *Topology, info *PreInfo, values, witnesses []int, opts ...Option) (int, int, Metrics, error) {
	a := newTreeAgg(topo, info, KindMax, 0, "convergecast", opts...)
	if witnesses != nil {
		for v, c := range a.Nodes() {
			c.Witness = witnesses[v]
		}
	}
	agg, m, err := a.run(values)
	if err != nil {
		return 0, 0, m, err
	}
	return agg, a.Node(a.root).AggWitness, m, nil
}
