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
	nw := NewNetworkOn(topo, func(v int) Node { return NewLeaderElectNode() }, opts...)
	if err := nw.Run(4*n + 16); err != nil {
		return nil, total, fmt.Errorf("leader election: %w", err)
	}
	total.Add(nw.Metrics())
	leader := -1
	for v := 0; v < n; v++ {
		l := nw.Node(v).(*LeaderElectNode).Leader
		if leader == -1 {
			leader = l
		} else if l != leader {
			return nil, total, fmt.Errorf("congest: leader election disagreement at node %d", v)
		}
	}

	// Phase 2: BFS(leader) with child discovery and ecc convergecast.
	nw = NewNetworkOn(topo, func(v int) Node { return NewBFSNode(leader) }, opts...)
	if err := nw.Run(8*n + 16); err != nil {
		return nil, total, fmt.Errorf("bfs construction: %w", err)
	}
	total.Add(nw.Metrics())
	info := &PreInfo{
		Leader:   leader,
		Parent:   make([]int, n),
		Depth:    make([]int, n),
		Children: make([][]int, n),
	}
	for v := 0; v < n; v++ {
		b := nw.Node(v).(*BFSNode)
		info.Parent[v] = b.Parent
		info.Depth[v] = b.Dist
		info.Children[v] = b.Children
		if v == leader {
			info.D = b.Ecc
		}
	}

	// Phase 3: broadcast d = ecc(leader) down the tree so every node can
	// schedule the fixed-length phases that follow.
	nw = NewNetworkOn(topo, func(v int) Node {
		return NewBroadcastNode(info.Parent[v], info.Children[v], info.D)
	}, opts...)
	if err := nw.Run(4*n + 16); err != nil {
		return nil, total, fmt.Errorf("broadcast d: %w", err)
	}
	total.Add(nw.Metrics())
	for v := 0; v < n; v++ {
		if got := nw.Node(v).(*BroadcastNode).Value; got != info.D {
			return nil, total, fmt.Errorf("congest: node %d received d=%d, want %d", v, got, info.D)
		}
	}
	return info, total, nil
}

// TokenWalkOn executes the Figure 2 Step 1 walk (L token steps from start
// on the tree described by info, with the given per-node child lists) on
// an already-built topology and returns tau' (-1 for unvisited vertices).
func TokenWalkOn(topo *Topology, info *PreInfo, children [][]int, start, steps int, opts ...Option) ([]int, Metrics, error) {
	nw := NewNetworkOn(topo, func(v int) Node {
		return NewTokenWalkNode(info.Parent[v], children[v], info.Leader, start, steps)
	}, opts...)
	if err := nw.Run(steps + 4); err != nil {
		return nil, nw.Metrics(), fmt.Errorf("token walk: %w", err)
	}
	tau := make([]int, topo.N())
	for v := range tau {
		tau[v] = nw.Node(v).(*TokenWalkNode).Tau
	}
	return tau, nw.Metrics(), nil
}

// WaveOn executes the Figure 2 Step 2 wave process for the initiators
// marked in tau (tau[v] >= 0 means v in S with tau'(v) = tau[v]) on an
// already-built topology and returns each node's dv.
func WaveOn(topo *Topology, tau []int, duration int, opts ...Option) ([]int, Metrics, error) {
	nw := NewNetworkOn(topo, func(v int) Node {
		return NewWaveNode(tau[v] >= 0, tau[v], duration)
	}, opts...)
	if err := nw.Run(duration + 4); err != nil {
		return nil, nw.Metrics(), fmt.Errorf("wave process: %w", err)
	}
	dv := make([]int, topo.N())
	for v := 0; v < topo.N(); v++ {
		wn := nw.Node(v).(*WaveNode)
		if wn.Violation != nil {
			return nil, nw.Metrics(), wn.Violation
		}
		dv[v] = wn.DV
	}
	return dv, nw.Metrics(), nil
}

// ConvergecastMaxOn aggregates max(values) at the root of the tree info
// describes, on an already-built topology, and returns (max, witness).
func ConvergecastMaxOn(topo *Topology, info *PreInfo, values, witnesses []int, opts ...Option) (int, int, Metrics, error) {
	nw := NewNetworkOn(topo, func(v int) Node {
		w := v
		if witnesses != nil {
			w = witnesses[v]
		}
		return NewConvergecastNode(KindMax, info.Parent[v], info.Children[v], values[v], w, 0)
	}, opts...)
	if err := nw.Run(4*topo.N() + 16); err != nil {
		return 0, 0, nw.Metrics(), fmt.Errorf("convergecast: %w", err)
	}
	root := nw.Node(info.Leader).(*ConvergecastNode)
	return root.Agg, root.AggWitness, nw.Metrics(), nil
}
