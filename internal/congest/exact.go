package congest

import (
	"fmt"

	"qcongest/internal/graph"
)

// ExactResult reports the outcome of a diameter algorithm together with its
// measured cost.
type ExactResult struct {
	Diameter int
	Metrics  Metrics
}

// ClassicalExactDiameter computes the exact diameter with the classical
// O(n)-round scheme of Peleg, Roditty and Tal [PRT12] that Section 3.3 of
// the paper refines: after preprocessing, a token DFS-numbers every vertex
// along the full Euler tour of BFS(leader) (2(n-1) rounds), every vertex v
// starts a BFS wave at round 2*tau(v) (the waves never collide, Lemmas
// 2-4), each node records the largest distance any wave needed to reach it,
// and a final convergecast returns the maximum — the diameter — to the
// leader.
//
// Total round complexity: Theta(n) + O(D), the classical baseline of
// Table 1 row "Exact computation". All traffic is typed wire messages, so
// the Metrics bit counts returned here are encoded lengths, not estimates.
func ClassicalExactDiameter(g *graph.Graph, opts ...Option) (ExactResult, error) {
	var res ExactResult
	topo, err := classicalTopology(g)
	if topo == nil {
		return res, err
	}
	info, dv, m, err := classicalEccPhases(topo, opts...)
	if err != nil {
		return res, err
	}
	res.Metrics.Add(m)

	// Convergecast of max dv: the diameter.
	diam, _, m, err := ConvergecastMaxOn(topo, info, dv, nil, opts...)
	if err != nil {
		return res, err
	}
	res.Metrics.Add(m)
	res.Diameter = diam
	return res, nil
}

// classicalTopology is the one prologue of the classical entry points: it
// rejects a nil or empty graph and builds the topology. A one-vertex graph
// needs no round at all (its diameter and eccentricity are 0), so it gets
// a nil topology and a nil error.
func classicalTopology(g *graph.Graph) (*Topology, error) {
	switch {
	case g == nil:
		return nil, errNilGraph
	case g.N() == 0:
		return nil, errEmptyGraph
	case g.N() == 1:
		return nil, nil
	}
	return NewTopology(g)
}

// classicalEccPhases runs the [PRT12] pipeline up to (and including) the
// wave phase: preprocessing, the full Euler tour that DFS-numbers every
// vertex, and the all-initiator wave process. After it, dv[v] = max_u d(u,v)
// = ecc(v) at every node — the shared core of ClassicalExactDiameter and
// ClassicalEccentricities.
func classicalEccPhases(topo *Topology, opts ...Option) (*PreInfo, []int, Metrics, error) {
	var total Metrics
	n := topo.N()
	info, m, err := PreprocessOn(topo, opts...)
	if err != nil {
		return nil, nil, total, err
	}
	total.Add(m)

	// Full Euler tour: every vertex receives tau = its DFS number.
	tourLen := 2 * (n - 1)
	tau, m, err := TokenWalkOn(topo, info, info.Children, info.Leader, tourLen, opts...)
	if err != nil {
		return nil, nil, total, err
	}
	total.Add(m)
	for v, t := range tau {
		if t < 0 {
			return nil, nil, total, fmt.Errorf("congest: vertex %d missed by full DFS walk", v)
		}
	}

	// Wave phase: last initiation at 2*tourLen, propagation <= 2d.
	duration := 2*tourLen + 2*info.D + 2
	dv, m, err := WaveOn(topo, tau, duration, opts...)
	if err != nil {
		return nil, nil, total, err
	}
	total.Add(m)
	return info, dv, total, nil
}

// ClassicalEccentricities computes ecc(v) for every vertex in Theta(n)
// rounds: when every vertex initiates a wave (the full Euler tour's tau
// numbering), each node's dv is max_u d(u, v), which by symmetry of d is
// exactly its own eccentricity — the whole vector falls out of one
// ClassicalExactDiameter run without the final convergecast. It is the
// classical baseline for the per-vertex quantum Eccentricities suite.
func ClassicalEccentricities(g *graph.Graph, opts ...Option) ([]int, Metrics, error) {
	topo, err := classicalTopology(g)
	if err != nil {
		return nil, Metrics{}, err
	}
	if topo == nil {
		return []int{0}, Metrics{}, nil
	}
	_, dv, m, err := classicalEccPhases(topo, opts...)
	return dv, m, err
}
