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
	"qcongest/internal/congest"
	"qcongest/internal/graph"
	"qcongest/internal/query"
)

// metric selects the eccentricity an Evaluation family computes.
type metric int

const (
	// hopMetric: hop distances, whatever the graph's weights.
	hopMetric metric = iota
	// graphMetric: the graph's own metric, weighted iff it carries weights.
	graphMetric
	// weightedMetric: weighted distances (every weight 1 on an unweighted
	// graph), always through a weighted Evaluation.
	weightedMetric
)

// eccFamily picks the eccentricity Evaluation family the metric (and
// Options.Sublinear) calls for, returning the extra measured init rounds
// the family's preprocessing charged (the skeleton oracle's).
func (in *instance) eccFamily(m metric) (evalFamily, int, error) {
	switch {
	case m == hopMetric || m == graphMetric && !in.g.Weighted():
		return func() evalSession { return newSingleEcc(in) }, 0, nil
	case !in.opts.Sublinear:
		return func() evalSession {
			return congest.NewWeightedEccSession(in.topo, in.info, in.opts.Engine...)
		}, 0, nil
	}
	oracle, err := in.skelOracle()
	if err != nil {
		return nil, 0, err
	}
	return func() evalSession { return skelEcc{oracle.NewEvalSession(in.opts.Engine...)} }, oracle.InitRounds, nil
}

// eccOptimum is the Section 3.1 recipe under metric m: quantum maximum (or
// minimum) finding over f(u) = ecc(u) with P_opt >= 1/n.
func eccOptimum(g *graph.Graph, opts Options, m metric, minimize bool) (Result, error) {
	in, ecc, err := prologue(g, opts, m != hopMetric)
	if in == nil {
		return Result{Diameter: extremum(ecc, minimize)}, err
	}
	fam, extraInit, err := in.eccFamily(m)
	if err != nil {
		return Result{}, err
	}
	return optimize(in.oracle(fam, extraInit), 1/float64(g.N()), opts, minimize)
}

// Radius computes the exact radius min_u ecc(u) by quantum minimum finding
// over f(u) = ecc(u) with P_opt >= 1/n — the Section 3.1 framework with the
// maximization replaced by the symmetric minimization. Õ(sqrt(n)·D) rounds
// on unweighted graphs; on weighted graphs the Evaluation is the
// fixed-duration Bellman–Ford relaxation and the result is the weighted
// radius.
func Radius(g *graph.Graph, opts Options) (Result, error) {
	return eccOptimum(g, opts, graphMetric, true)
}

// WeightedDiameter computes the exact weighted diameter by quantum maximum
// finding over f(u) = weighted ecc(u) with P_opt >= 1/n. Each Evaluation is
// one fixed-duration Bellman–Ford relaxation plus a weighted max
// convergecast; on an unweighted graph the result equals the hop diameter.
func WeightedDiameter(g *graph.Graph, opts Options) (Result, error) {
	return eccOptimum(g, opts, weightedMetric, false)
}

// WeightedRadius is WeightedDiameter's minimization twin: quantum minimum
// finding over the weighted eccentricities.
func WeightedRadius(g *graph.Graph, opts Options) (Result, error) {
	return eccOptimum(g, opts, weightedMetric, true)
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
	in, ecc, err := prologue(g, opts, true)
	if in == nil {
		return EccResult{Ecc: ecc}, err
	}
	fam, extraInit, err := in.eccFamily(graphMetric)
	if err != nil {
		return EccResult{}, err
	}
	// The straight-line use of the query layer: one Evaluation per vertex,
	// batched over cloned sessions (Parallel), with the per-vertex cost
	// uniformity (the property the quantum queries rely on) asserted by
	// EvalAll.
	o := in.oracle(fam, extraInit)
	ecc, evalRounds, err := query.EvalAll(o, opts.query())
	if err != nil {
		return EccResult{}, err
	}
	return EccResult{
		Ecc:        ecc,
		Rounds:     o.initRounds + len(ecc)*evalRounds,
		InitRounds: o.initRounds,
		EvalRounds: evalRounds,
	}, nil
}
