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
	"sort"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
	"qcongest/internal/query"
)

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

// triangleOracle prepares the triangle Evaluation family: the adjacency
// probe computes the per-vertex flags once (charged to InitRounds together
// with the preprocessing), and each Evaluation extracts one flag at the
// leader by a convergecast.
func triangleOracle(g *graph.Graph, opts Options) (ctxOracle, error) {
	topo, err := congest.NewTopology(g)
	if err != nil {
		return ctxOracle{}, err
	}
	info, pre, err := congest.PreprocessOn(topo, opts.Engine...)
	if err != nil {
		return ctxOracle{}, err
	}
	flags, probe, err := congest.TriangleFlagsOn(topo, opts.Engine...)
	if err != nil {
		return ctxOracle{}, err
	}
	return ctxOracle{
		domain:      identityDomain(g.N()),
		initRounds:  pre.Rounds + probe.Rounds,
		setupRounds: info.D + 1,
		workers:     topo.EngineWorkers(opts.Engine...),
		family: func() *evalContext {
			ts := congest.NewTriangleSession(topo, info, flags, opts.Engine...)
			return &evalContext{
				eval: func(u0 int) (int, int, error) {
					v, m, err := ts.Eval(u0)
					return v, m.Rounds, err
				},
				close: ts.Close,
			}
		},
	}, nil
}

func triangleFromQuery(qr query.Result) TriangleResult {
	res := TriangleResult{
		Found:        qr.Found,
		Vertex:       qr.X,
		Count:        qr.Count,
		Rounds:       qr.Rounds,
		InitRounds:   qr.InitRounds,
		SetupRounds:  qr.SetupRounds,
		EvalRounds:   qr.EvalRounds,
		Iterations:   qr.Iterations,
		LeaderQubits: qr.LeaderQubits,
		NodeQubits:   qr.NodeQubits,
	}
	if len(qr.All) > 0 {
		res.Vertices = append([]int(nil), qr.All...)
		sort.Ints(res.Vertices)
	}
	return res
}

// trivialTriangle handles the quantum-free cases: fewer than three vertices
// never contain a triangle (the disconnected two-vertex graph stays an
// error, consistently with the rest of the suite).
func trivialTriangle(g *graph.Graph) (TriangleResult, error) {
	switch g.N() {
	case 0, 1:
		return TriangleResult{}, nil
	case 2:
		if !g.HasEdge(0, 1) {
			return TriangleResult{}, graph.ErrDisconnected
		}
		return TriangleResult{}, nil
	}
	return TriangleResult{}, errTrivial
}

// TriangleDetect decides whether the graph contains a triangle by quantum
// search over the vertex-local triangle predicate: f(u) = 1 iff u lies on a
// triangle. With probability at least 1-Delta the answer is correct in both
// directions.
func TriangleDetect(g *graph.Graph, opts Options) (TriangleResult, error) {
	if err := opts.validate(); err != nil {
		return TriangleResult{}, err
	}
	if r, err := trivialTriangle(g); !errors.Is(err, errTrivial) {
		return r, err
	}
	oracle, err := triangleOracle(g, opts)
	if err != nil {
		return TriangleResult{}, err
	}
	qr, err := query.Search(oracle, func(v int) bool { return v == 1 },
		query.Options{Delta: opts.delta(), Seed: opts.Seed, Parallel: opts.Parallel})
	if err != nil {
		return TriangleResult{}, err
	}
	return triangleFromQuery(qr), nil
}

// TriangleCount counts the vertices lying on at least one triangle (and
// lists them) by the quantum search-and-exclude loop over the same
// predicate.
func TriangleCount(g *graph.Graph, opts Options) (TriangleResult, error) {
	if err := opts.validate(); err != nil {
		return TriangleResult{}, err
	}
	if r, err := trivialTriangle(g); !errors.Is(err, errTrivial) {
		return r, err
	}
	oracle, err := triangleOracle(g, opts)
	if err != nil {
		return TriangleResult{}, err
	}
	qr, err := query.Count(oracle, func(v int) bool { return v == 1 },
		query.Options{Delta: opts.delta(), Seed: opts.Seed, Parallel: opts.Parallel})
	if err != nil {
		return TriangleResult{}, err
	}
	return triangleFromQuery(qr), nil
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
// the smallest crossing edge count.
func MinTreeCut(g *graph.Graph, opts Options) (CutResult, error) {
	if err := opts.validate(); err != nil {
		return CutResult{}, err
	}
	n := g.N()
	switch n {
	case 0, 1:
		return CutResult{}, graph.ErrDisconnected
	case 2:
		w := g.Weight(0, 1)
		if w == 0 {
			return CutResult{}, graph.ErrDisconnected
		}
		// The single non-leader subtree is {0}; its cut is the one edge.
		return CutResult{Weight: w, Root: 0}, nil
	}
	topo, err := congest.NewTopology(g)
	if err != nil {
		return CutResult{}, err
	}
	info, pre, err := congest.PreprocessOn(topo, opts.Engine...)
	if err != nil {
		return CutResult{}, err
	}
	domain := make([]int, 0, n-1)
	for v := 0; v < n; v++ {
		if v != info.Leader {
			domain = append(domain, v)
		}
	}
	oracle := ctxOracle{
		domain:      domain,
		initRounds:  pre.Rounds,
		setupRounds: info.D + 1,
		workers:     topo.EngineWorkers(opts.Engine...),
		family: func() *evalContext {
			cs := congest.NewCutSession(topo, info, opts.Engine...)
			return &evalContext{
				eval: func(u0 int) (int, int, error) {
					v, m, err := cs.Eval(u0)
					return v, m.Rounds, err
				},
				close: cs.Close,
			}
		},
	}
	qr, err := query.Minimum(oracle, 1/float64(len(domain)),
		query.Options{Delta: opts.delta(), Seed: opts.Seed, Parallel: opts.Parallel})
	if err != nil {
		return CutResult{}, err
	}
	return CutResult{
		Weight:       qr.Value,
		Root:         qr.X,
		Rounds:       qr.Rounds,
		InitRounds:   qr.InitRounds,
		SetupRounds:  qr.SetupRounds,
		EvalRounds:   qr.EvalRounds,
		Iterations:   qr.Iterations,
		LeaderQubits: qr.LeaderQubits,
		NodeQubits:   qr.NodeQubits,
	}, nil
}
