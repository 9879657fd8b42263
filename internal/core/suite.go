package core

// The distance-parameter suite: the paper's Figure 2 machinery computes far
// more than the diameter. Quantum minimum finding over the same per-vertex
// eccentricity Evaluations yields the radius; running the Evaluation once
// per vertex (batched over cloned sessions) yields the full eccentricity
// vector; and swapping the wave process for the fixed-duration Bellman–Ford
// relaxation of internal/congest extends everything to weighted graphs —
// the directions of the eccentricity (Wang–Wu–Yao 2022) and weighted
// diameter/radius (Wu–Yao 2022) follow-ups, instantiated on this
// repository's measured-round framework. DESIGN.md ("Distance-parameter
// suite") maps each entry point to the theorem it instantiates.
//
// Weight handling is uniform across the suite: Radius and Eccentricities
// compute hop parameters on unweighted graphs and weighted parameters on
// weighted graphs (the graph carries its own metric); WeightedDiameter and
// WeightedRadius force the weighted Evaluation, which on an unweighted
// graph degenerates to the hop parameter (all weights 1).

import (
	"errors"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
	"qcongest/internal/query"
)

// trivialWeighted handles the n <= 2 cases of the weighted parameters: for
// two vertices both eccentricities equal the weight of the single edge
// (weight 0 means the edge is absent — the graph is disconnected).
func trivialWeighted(g *graph.Graph) (Result, error) {
	switch g.N() {
	case 0, 1:
		return Result{Diameter: 0}, nil
	case 2:
		w := g.Weight(0, 1)
		if w == 0 {
			return Result{}, graph.ErrDisconnected
		}
		return Result{Diameter: w}, nil
	}
	return Result{}, errTrivial
}

// eccContextFor picks the Evaluation family the graph's metric (and
// Options.Sublinear) calls for, returning any extra measured init rounds
// the family's preprocessing charged (the skeleton oracle's).
func eccContextFor(g *graph.Graph, topo *congest.Topology, info *congest.PreInfo, opts Options) (evalFamily, int, error) {
	if g.Weighted() {
		return weightedFamilyFor(topo, info, opts)
	}
	return singleEccContext(topo, info, opts), 0, nil
}

// weightedFamilyFor picks between the classical fixed-duration Bellman–Ford
// Evaluation (the golden-pinned default) and the skeleton distance oracle
// (Options.Sublinear), returning the oracle's measured init cost.
func weightedFamilyFor(topo *congest.Topology, info *congest.PreInfo, opts Options) (evalFamily, int, error) {
	if !opts.Sublinear {
		return weightedEccContext(topo, info, opts), 0, nil
	}
	oracle, err := buildSkelOracle(topo, info, opts)
	if err != nil {
		return nil, 0, err
	}
	return skelEccFamily(oracle, opts), oracle.InitRounds, nil
}

// Radius computes the exact radius min_u ecc(u) by quantum minimum finding
// over f(u) = ecc(u) with P_opt >= 1/n — the Section 3.1 framework with the
// maximization replaced by the symmetric minimization. Õ(sqrt(n)·D) rounds
// on unweighted graphs; on weighted graphs the Evaluation is the
// fixed-duration Bellman–Ford relaxation and the result is the weighted
// radius.
func Radius(g *graph.Graph, opts Options) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	if g.Weighted() {
		return WeightedRadius(g, opts)
	}
	if r, err := trivialDiameter(g); !errors.Is(err, errTrivial) {
		return r, err
	}
	topo, err := congest.NewTopology(g)
	if err != nil {
		return Result{}, err
	}
	info, pre, err := congest.PreprocessOn(topo, opts.Engine...)
	if err != nil {
		return Result{}, err
	}
	return runOptimization(singleEccContext(topo, info, opts), topo, opts, optimizationParams{
		domain:      identityDomain(g.N()),
		eps:         1 / float64(g.N()),
		initRounds:  pre.Rounds,
		setupRounds: info.D + 1,
		minimize:    true,
	})
}

// WeightedDiameter computes the exact weighted diameter by quantum maximum
// finding over f(u) = weighted ecc(u) with P_opt >= 1/n. Each Evaluation is
// one fixed-duration Bellman–Ford relaxation plus a weighted max
// convergecast; on an unweighted graph the result equals the hop diameter.
func WeightedDiameter(g *graph.Graph, opts Options) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	if r, err := trivialWeighted(g); !errors.Is(err, errTrivial) {
		return r, err
	}
	topo, err := congest.NewTopology(g)
	if err != nil {
		return Result{}, err
	}
	info, pre, err := congest.PreprocessOn(topo, opts.Engine...)
	if err != nil {
		return Result{}, err
	}
	fam, oracleInit, err := weightedFamilyFor(topo, info, opts)
	if err != nil {
		return Result{}, err
	}
	return runOptimization(fam, topo, opts, optimizationParams{
		domain:      identityDomain(g.N()),
		eps:         1 / float64(g.N()),
		initRounds:  pre.Rounds + oracleInit,
		setupRounds: info.D + 1,
	})
}

// WeightedRadius is WeightedDiameter's minimization twin: quantum minimum
// finding over the weighted eccentricities.
func WeightedRadius(g *graph.Graph, opts Options) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	if r, err := trivialWeighted(g); !errors.Is(err, errTrivial) {
		return r, err
	}
	topo, err := congest.NewTopology(g)
	if err != nil {
		return Result{}, err
	}
	info, pre, err := congest.PreprocessOn(topo, opts.Engine...)
	if err != nil {
		return Result{}, err
	}
	fam, oracleInit, err := weightedFamilyFor(topo, info, opts)
	if err != nil {
		return Result{}, err
	}
	return runOptimization(fam, topo, opts, optimizationParams{
		domain:      identityDomain(g.N()),
		eps:         1 / float64(g.N()),
		initRounds:  pre.Rounds + oracleInit,
		setupRounds: info.D + 1,
		minimize:    true,
	})
}

// EccResult reports the full eccentricity vector together with its measured
// CONGEST cost.
type EccResult struct {
	// Ecc[v] is the (hop or weighted, per the graph's metric) eccentricity
	// of vertex v.
	Ecc []int
	// Rounds is the total round complexity of the straight-line computation:
	// InitRounds + n * EvalRounds.
	Rounds int
	// InitRounds is the measured preprocessing cost.
	InitRounds int
	// EvalRounds is the measured cost of one Evaluation (identical for every
	// vertex: the durations are fixed).
	EvalRounds int
}

// Eccentricities computes ecc(v) for every vertex by running one Evaluation
// per vertex on reused sessions — Options.Parallel (by default the
// automatic CPU budget) batches independent Evaluations onto cloned
// sessions via a congest.Pool, with results identical to the sequential
// run. On weighted graphs each Evaluation is the
// weighted one and the vector holds weighted eccentricities.
func Eccentricities(g *graph.Graph, opts Options) (EccResult, error) {
	if err := opts.validate(); err != nil {
		return EccResult{}, err
	}
	n := g.N()
	switch n {
	case 0:
		return EccResult{Ecc: []int{}}, nil
	case 1:
		return EccResult{Ecc: []int{0}}, nil
	case 2:
		w := g.Weight(0, 1)
		if w == 0 {
			return EccResult{}, graph.ErrDisconnected
		}
		return EccResult{Ecc: []int{w, w}}, nil
	}
	topo, err := congest.NewTopology(g)
	if err != nil {
		return EccResult{}, err
	}
	info, pre, err := congest.PreprocessOn(topo, opts.Engine...)
	if err != nil {
		return EccResult{}, err
	}
	fam, oracleInit, err := eccContextFor(g, topo, info, opts)
	if err != nil {
		return EccResult{}, err
	}
	oracle := ctxOracle{
		domain:      identityDomain(n),
		initRounds:  pre.Rounds + oracleInit,
		setupRounds: info.D + 1,
		family:      fam,
		workers:     topo.EngineWorkers(opts.Engine...),
	}
	// The straight-line use of the query layer: one Evaluation per vertex,
	// batched over cloned sessions (Parallel), with the per-vertex cost
	// uniformity (the property the quantum queries rely on) asserted by
	// EvalAll.
	ecc, evalRounds, err := query.EvalAll(oracle, query.Options{Seed: opts.Seed, Parallel: opts.Parallel})
	if err != nil {
		return EccResult{}, err
	}
	return EccResult{
		Ecc:        ecc,
		Rounds:     pre.Rounds + oracleInit + n*evalRounds,
		InitRounds: pre.Rounds + oracleInit,
		EvalRounds: evalRounds,
	}, nil
}
