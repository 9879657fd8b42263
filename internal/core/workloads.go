package core

// New workloads on the generic query layer — the point of the framework:
// once an Evaluation family is wrapped as a query.Oracle, every query kind
// (Search, Count, Minimum) is one call. TriangleDetect/TriangleCount run
// quantum search/counting over the vertex-local triangle predicate
// (congest.TriangleFlagsOn + one convergecast per Evaluation), and
// MinTreeCut runs quantum minimum finding over the tree-cut weights
// (congest.CutSession). Both Evaluation families are real wire-accounted
// CONGEST programs with input-independent round counts.

import (
	"errors"
	"slices"
	"sort"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
	"qcongest/internal/query"
)

// errNoTreeCut is MinTreeCut's answer on the connected graphs of 0 and 1
// vertices, which have nothing to separate.
var errNoTreeCut = errors.New("core: no tree cut on fewer than two vertices")

// TriangleResult reports a triangle search or count together with its
// measured costs.
type TriangleResult struct {
	// Found reports whether a triangle vertex was found (detection: with
	// probability >= 1-Delta the graph is triangle-free when false).
	Found bool
	// Vertex is a vertex lying on a triangle (valid when Found).
	Vertex int
	// Vertices lists every vertex lying on at least one triangle, ascending,
	// and Count is its size (TriangleCount only; TriangleDetect leaves them
	// empty).
	Vertices []int
	Count    int
	// Cost accounting, as in Result.
	Rounds       int
	InitRounds   int
	SetupRounds  int
	EvalRounds   int
	Iterations   int
	LeaderQubits int
	NodeQubits   int
}

// triangleQuery runs quantum search (or counting) over the triangle
// Evaluation family: the adjacency probe computes the per-vertex flags once
// (charged to InitRounds together with the preprocessing), and each
// Evaluation extracts one flag at the leader by a convergecast. Fewer than
// three vertices never contain a triangle (the disconnected two-vertex
// graph stays an error, consistently with the rest of the suite).
func triangleQuery(g *graph.Graph, opts Options, count bool) (TriangleResult, error) {
	in, _, err := prologue(g, opts, false)
	if in == nil {
		return TriangleResult{}, err
	}
	flags, probe, err := congest.TriangleFlagsOn(in.topo, opts.Engine...)
	if err != nil {
		return TriangleResult{}, err
	}
	o := in.oracle(func() evalSession {
		return congest.NewTriangleSession(in.topo, in.info, flags, opts.Engine...)
	}, probe.Rounds)
	run := query.Search
	if count {
		run = query.Count
	}
	qr, err := run(o, func(v int) bool { return v == 1 }, opts.query())
	if err != nil {
		return TriangleResult{}, err
	}
	res := TriangleResult{Found: qr.Found, Vertex: qr.X, Count: qr.Count}
	res.Rounds, res.InitRounds, res.SetupRounds, res.EvalRounds, res.Iterations, res.LeaderQubits, res.NodeQubits = costs(qr)
	if len(qr.All) > 0 {
		res.Vertices = append([]int(nil), qr.All...)
		sort.Ints(res.Vertices)
	}
	return res, nil
}

// TriangleDetect decides whether the graph contains a triangle by quantum
// search over the vertex-local triangle predicate: f(u) = 1 iff u lies on a
// triangle. With probability at least 1-Delta the answer is correct in both
// directions.
func TriangleDetect(g *graph.Graph, opts Options) (TriangleResult, error) {
	return triangleQuery(g, opts, false)
}

// TriangleCount counts the vertices lying on at least one triangle (and
// lists them) by the quantum search-and-exclude loop over the same
// predicate.
func TriangleCount(g *graph.Graph, opts Options) (TriangleResult, error) {
	return triangleQuery(g, opts, true)
}

// CutResult reports a minimum tree cut together with its measured costs.
type CutResult struct {
	// Weight is the minimum crossing weight over all tree cuts, and Root the
	// subtree root achieving it: the cut separates subtree(Root) of the
	// preprocessing BFS tree from the rest of the graph.
	Weight int
	Root   int
	// Cost accounting, as in Result.
	Rounds       int
	InitRounds   int
	SetupRounds  int
	EvalRounds   int
	Iterations   int
	LeaderQubits int
	NodeQubits   int
}

// MinTreeCut computes the minimum-weight tree cut — the lightest edge set
// whose removal separates some BFS subtree from the rest of the graph — by
// quantum minimum finding over f(u) = weight of the cut (subtree(u), rest),
// for u ranging over the non-leader vertices (the leader's subtree is the
// whole graph). Each Evaluation is a fixed-duration mark flood plus a sum
// convergecast; on unweighted graphs every edge weighs 1 and the result is
// the smallest crossing edge count. A connected graph of fewer than two
// vertices has no non-leader subtree and so no tree cut, which is an error
// of its own, distinct from graph.ErrDisconnected.
func MinTreeCut(g *graph.Graph, opts Options) (CutResult, error) {
	in, ecc, err := prologue(g, opts, true)
	if in == nil {
		if err == nil && len(ecc) < 2 {
			err = errNoTreeCut
		}
		if err != nil {
			return CutResult{}, err
		}
		// The single non-leader subtree is {0}; its cut is the one edge.
		return CutResult{Weight: ecc[0], Root: 0}, nil
	}
	o := in.oracle(func() evalSession {
		return congest.NewCutSession(in.topo, in.info, opts.Engine...)
	}, 0)
	o.domain = slices.DeleteFunc(o.domain, func(v int) bool { return v == in.info.Leader })
	qr, err := query.Minimum(o, 1/float64(len(o.domain)), opts.query())
	if err != nil {
		return CutResult{}, err
	}
	res := CutResult{Weight: qr.Value, Root: qr.X}
	res.Rounds, res.InitRounds, res.SetupRounds, res.EvalRounds, res.Iterations, res.LeaderQubits, res.NodeQubits = costs(qr)
	return res, nil
}
