// Package core implements the paper's primary contribution: quantum
// distributed algorithms for the diameter in the CONGEST model.
//
//   - ExactDiameterSimple — the Õ(sqrt(n)·D)-round algorithm of Section 3.1
//     (quantum optimization of f(u) = ecc(u) over all vertices);
//   - ExactDiameter — the Õ(sqrt(n·D))-round algorithm of Section 3.2
//     (Theorem 1), which optimizes f(u) = max_{v in S(u)} ecc(v) with the
//     window sets S(u) of Definition 2 and the Evaluation procedure of
//     Figure 2;
//   - ApproxDiameter — the Õ(cbrt(n·D) + D)-round 3/2-approximation of
//     Section 4 (Theorem 4), which restricts the optimization to the set R
//     of the s closest vertices to the vertex w found by the [HPRW14]
//     preparation.
//
// Every entry point follows the Theorem 7 recipe on one pipeline. One
// prologue validates the options, answers graphs of at most two vertices
// from their eccentricity vector (the one small-graph rule), and otherwise
// builds the topology and runs the Section 3 preprocessing (leader
// election and BFS tree). The entry point then picks one Evaluation family
// and runs one query over it (internal/query); the family's sessions reach
// the query layer through one adapter, and the query's costs come back
// through one conversion.
//
// Every Evaluation is executed as a real message-passing CONGEST program
// (internal/congest) whose round count is measured, and the quantum layer
// charges rounds per Theorem 7. Each context builds its sessions once
// (congest.WalkSession, congest.EccSession, ...) and every Evaluation is a
// Reset+Run on them — bit-identical to fresh networks, without rebuilding
// topology tables, programs or arenas per execution. Options.Parallel
// builds further contexts from the same constructors into a congest.Pool
// and runs independent Evaluations concurrently — by default one per CPU
// (congest.Contexts), each running its engine on one goroutine; results are
// identical for any value.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
	"qcongest/internal/query"
)

// Result reports a quantum diameter computation together with its measured
// costs.
type Result struct {
	// Diameter is the computed value (for ApproxDiameter, the estimate).
	Diameter int
	// Rounds is the total quantum round complexity per Theorem 7.
	Rounds int
	// InitRounds, SetupRounds and EvalRounds are the measured costs of the
	// three framework operations (Evaluation: one classical execution).
	// InitRounds covers every preparatory distributed phase the algorithm
	// ran, including (for ApproxDiameter) the probe preprocessing that
	// chooses the sample size s.
	InitRounds  int
	SetupRounds int
	EvalRounds  int
	// Iterations is the number of amplitude-amplification steps performed.
	Iterations int
	// LeaderQubits / NodeQubits are the quantum memory accounting.
	LeaderQubits int
	NodeQubits   int
}

// Options configures the quantum algorithms.
type Options struct {
	// Delta is the per-optimization failure probability (default 0.1).
	Delta float64
	// Seed drives all measurements.
	Seed int64
	// S overrides the sample size of ApproxDiameter (default
	// n^{2/3} / d^{1/3} per Theorem 4).
	S int
	// Parallel is the number of cloned evaluation contexts used to run
	// independent Evaluations concurrently. 0 (the default) selects the
	// automatic CPU budget, congest.Contexts: min(GOMAXPROCS, Evaluations
	// to run) contexts, each running its engine on one goroutine; 1 runs
	// one context sequentially, and k > 1 is an explicit override (never
	// more contexts than Evaluations to run). Evaluations are deterministic
	// and their values input-independent, so the computed Result is
	// identical for every value; the knob only trades wall-clock time.
	// Negative values are rejected by every entry point (see
	// Options.validate).
	Parallel int
	// Sublinear selects the skeleton distance-oracle Evaluation for the
	// weighted parameters (WeightedDiameter, WeightedRadius and weighted
	// Eccentricities): a seeded skeleton sample plus hop-bounded relaxation
	// replaces the fixed (n-1)-round Bellman–Ford inner loop, making each
	// Evaluation Õ(sqrt(n) + D) rounds instead of Θ(n). The default false
	// keeps the classical inner loop (the golden-pinned path). APSP always
	// uses the oracle. See DESIGN.md "Quantum APSP".
	Sublinear bool
	// Engine configures every CONGEST execution the algorithm performs
	// (e.g. congest.WithStrictAccounting).
	Engine []congest.Option
}

func (o Options) delta() float64 {
	if !(o.Delta > 0 && o.Delta < 1) {
		return 0.1
	}
	return o.Delta
}

// validate rejects option values that cannot mean anything: Parallel 0
// means automatic and 1 sequential evaluation, but a negative count is a
// caller bug, and so is a NaN Delta (any other out-of-range Delta selects
// the default). The prologue calls this before building any topology or
// session.
func (o Options) validate() error {
	if o.Parallel < 0 {
		return fmt.Errorf("core: Options.Parallel %d is negative (0 selects the automatic CPU budget, 1 sequential evaluation)", o.Parallel)
	}
	if math.IsNaN(o.Delta) {
		return errors.New("core: Options.Delta is NaN (0 selects the default 0.1)")
	}
	return nil
}

// query is the query-layer view of the options.
func (o Options) query() query.Options {
	return query.Options{Delta: o.delta(), Seed: o.Seed, Parallel: o.Parallel}
}

// instance is an entry point's network after the prologue: the validated
// topology and the Section 3 preprocessing every algorithm starts from.
type instance struct {
	g    *graph.Graph
	opts Options
	topo *congest.Topology
	info *congest.PreInfo
	// pre is the measured round count of the preprocessing.
	pre int
}

// prologue is the one entry-point prologue. It rejects bad options and a
// nil graph, answers a graph of at most two vertices with its eccentricity
// vector (smallEcc), and otherwise builds the topology and runs the
// preprocessing. Without an error exactly one of in and ecc is non-nil.
func prologue(g *graph.Graph, opts Options, weighted bool) (in *instance, ecc []int, err error) {
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	if g == nil {
		return nil, nil, errors.New("core: nil graph")
	}
	if ecc, err := smallEcc(g, weighted); ecc != nil || err != nil {
		return nil, ecc, err
	}
	topo, err := congest.NewTopology(g)
	if err != nil {
		return nil, nil, err
	}
	info, pre, err := congest.PreprocessOn(topo, opts.Engine...)
	if err != nil {
		return nil, nil, err
	}
	return &instance{g: g, opts: opts, topo: topo, info: info, pre: pre.Rounds}, nil, nil
}

// smallEcc is the one small-graph rule: the eccentricity vector of a graph
// of at most two vertices, weighted (the edge's weight; 1 on an unweighted
// graph) or in hops, with no distributed phase at all. Two isolated
// vertices are the one disconnected case the topology validation never
// sees. It returns nil for larger graphs.
func smallEcc(g *graph.Graph, weighted bool) ([]int, error) {
	switch g.N() {
	case 0:
		return []int{}, nil
	case 1:
		return []int{0}, nil
	case 2:
		w := g.Weight(0, 1)
		if w == 0 {
			return nil, graph.ErrDisconnected
		}
		if !weighted {
			w = 1
		}
		return []int{w, w}, nil
	}
	return nil, nil
}

// extremum is the maximum of ecc, or its minimum when minimize is set (0
// for an empty vector): a small graph's diameter or radius.
func extremum(ecc []int, minimize bool) int {
	switch {
	case len(ecc) == 0:
		return 0
	case minimize:
		return slices.Min(ecc)
	}
	return slices.Max(ecc)
}

// evalSession is one context's Evaluation: the congest session (or
// composite of sessions) that computes f(x) and measures its cost.
type evalSession interface {
	Eval(x int) (int, congest.Metrics, error)
	Close()
}

// sessionContext is the one adapter from an Evaluation session to
// query.Context.
type sessionContext struct{ s evalSession }

func (c sessionContext) Eval(x int) (value, rounds int, err error) {
	v, m, err := c.s.Eval(x)
	return v, m.Rounds, err
}

func (c sessionContext) Close() { c.s.Close() }

// evalFamily builds one independent Evaluation context: the sessions
// behind distinct contexts share no mutable state, so they may evaluate
// concurrently (each one still evaluates serially).
type evalFamily func() evalSession

// ctxOracle adapts an evalFamily plus the measured framework costs into a
// query.Oracle — the bridge every entry point in this package crosses into
// the shared query layer.
type ctxOracle struct {
	domain      []int
	initRounds  int
	setupRounds int
	family      evalFamily
}

// ConcurrentContexts opts in to the query layer's automatic budget: every
// context holds its own sessions, so contexts evaluate concurrently.
func (ctxOracle) ConcurrentContexts() {}

func (o ctxOracle) Domain() []int             { return o.domain }
func (o ctxOracle) InitRounds() int           { return o.initRounds }
func (o ctxOracle) SetupRounds() int          { return o.setupRounds }
func (o ctxOracle) NewContext() query.Context { return sessionContext{o.family()} }

// oracle wraps an Evaluation family over the instance's topology. The
// domain defaults to every vertex and the Setup cost to the broadcast
// down the BFS tree (D+1 rounds); InitRounds is the preprocessing plus
// extraInit, the family's own preparatory phases.
func (in *instance) oracle(fam evalFamily, extraInit int) ctxOracle {
	domain := make([]int, in.topo.N())
	for i := range domain {
		domain[i] = i
	}
	return ctxOracle{
		domain:      domain,
		initRounds:  in.pre + extraInit,
		setupRounds: in.info.D + 1,
		family:      fam,
	}
}

// costs is the one conversion from a query's costs to the cost fields
// every result type of this package carries.
func costs(qr query.Result) (rounds, initRounds, setupRounds, evalRounds, iterations, leaderQubits, nodeQubits int) {
	return qr.Rounds, qr.InitRounds, qr.SetupRounds, qr.EvalRounds, qr.Iterations, qr.LeaderQubits, qr.NodeQubits
}

// optimize runs quantum maximum (or minimum) finding over o, provided the
// mass of optimizers under the uniform state is at least eps.
func optimize(o ctxOracle, eps float64, opts Options, minimize bool) (Result, error) {
	find := query.Maximum
	if minimize {
		find = query.Minimum
	}
	qr, err := find(o, eps, opts.query())
	if err != nil {
		return Result{}, err
	}
	r := Result{Diameter: qr.Value}
	r.Rounds, r.InitRounds, r.SetupRounds, r.EvalRounds, r.Iterations, r.LeaderQubits, r.NodeQubits = costs(qr)
	return r, nil
}

// ExactDiameterSimple runs the Section 3.1 algorithm: quantum maximum
// finding over f(u) = ecc(u) with P_opt >= 1/n, giving Õ(sqrt(n)·D) rounds.
func ExactDiameterSimple(g *graph.Graph, opts Options) (Result, error) {
	return eccOptimum(g, opts, hopMetric, false)
}

// ExactDiameter runs the Theorem 1 algorithm (Section 3.2): quantum maximum
// finding over f(u0) = max_{v in S(u0)} ecc(v), where S(u0) covers every
// vertex with probability >= d/2n (Lemma 1), giving Õ(sqrt(n·D)) rounds.
func ExactDiameter(g *graph.Graph, opts Options) (Result, error) {
	in, ecc, err := prologue(g, opts, false)
	if in == nil {
		return Result{Diameter: extremum(ecc, false)}, err
	}
	n, d := g.N(), in.info.D
	// Evaluation for input u0 is exactly Figure 2: a 2d-step DFS walk from
	// u0 assigning tau', the 6d-round wave process over S(u0), and the
	// bottom-up max convergecast. All three phases have input-independent
	// round counts.
	o := in.oracle(in.walkEccFamily(in.info, in.info.Children, 2*d, 6*d+2, nil), 0)
	eps := min(1, float64(d)/(2*float64(n))) // Lemma 1
	return optimize(o, eps, opts, false)
}

// ApproxDiameter runs the Theorem 4 algorithm (Section 4, Figure 3): the
// [HPRW14] preparation selects the set R of the s closest vertices to w,
// and quantum optimization computes max_{v in R} ecc(v) in Õ(sqrt(s·D))
// rounds. With s = Theta(n^{2/3} D^{-1/3}) the total is Õ(cbrt(n·D) + D),
// and the output Dhat satisfies floor(2D/3) <= Dhat <= D with high
// probability.
func ApproxDiameter(g *graph.Graph, opts Options) (Result, error) {
	// Choose s = n^{2/3} d^{-1/3} using the free 2-approximation
	// d = ecc(leader): the prologue's preprocessing is the probe that
	// supplies d. It is a real distributed phase, so its rounds are charged
	// to InitRounds below, together with the preparation's.
	in, ecc, err := prologue(g, opts, false)
	if in == nil {
		return Result{Diameter: extremum(ecc, false)}, err
	}
	n := g.N()
	s := opts.S
	if s <= 0 {
		s = int(math.Ceil(math.Pow(float64(n), 2.0/3.0) / math.Pow(math.Max(1, float64(in.info.D)), 1.0/3.0)))
	}
	s = min(max(s, 1), n)

	prep, preM, err := congest.PrepareApproxOn(in.topo, s, opts.Seed, opts.Engine...)
	if err != nil {
		return Result{}, err
	}
	d := prep.Info.D

	// The window width on the R-subtree tour: Lemma 1's argument needs the
	// window to exceed the subtree depth by 2d, so that any window ending
	// in a top-down move contains at least d top-down moves. (The paper
	// keeps the width 2d and replaces "mod 2n" by "mod 2s"; widening to
	// 2(tStar + d) preserves both the O(D) evaluation cost, since tStar <=
	// ecc(w) <= 2d, and the coverage bound P_opt >= d/2s.)
	tStar := 0
	domain := make([]int, 0, prep.RSize)
	for v := 0; v < n; v++ {
		if prep.RMembers[v] {
			tStar = max(tStar, prep.WDepth[v])
			domain = append(domain, v)
		}
	}
	window := 2 * (tStar + d)
	wInfo := &congest.PreInfo{
		Leader:   prep.W,
		Parent:   prep.WParent,
		Depth:    prep.WDepth,
		Children: prep.WNatural,
		D:        prep.EccW,
	}
	inR := func(u0 int) error {
		if !prep.RMembers[u0] {
			return fmt.Errorf("core: evaluation input %d outside R", u0)
		}
		return nil
	}
	o := in.oracle(in.walkEccFamily(wInfo, prep.RChild, window, 2*window+2*d+2, inR), preM.Rounds)
	o.domain = domain
	o.setupRounds = tStar + 1 // broadcast down the R-subtree
	eps := min(1, float64(d)/(2*float64(prep.RSize)))
	return optimize(o, eps, opts, false)
}

// walkEcc is the Figure 2 Evaluation shared by ExactDiameter and
// ApproxDiameter: a steps-bounded token walk assigning tau', then the wave
// process and max convergecast. check, when non-nil, validates an input
// before any session runs (ApproxDiameter's R-membership guard).
type walkEcc struct {
	walk  *congest.WalkSession
	ecc   *congest.EccSession
	check func(u0 int) error
}

func (in *instance) walkEccFamily(info *congest.PreInfo, children [][]int,
	steps, waveDuration int, check func(u0 int) error) evalFamily {
	return func() evalSession {
		return &walkEcc{
			walk:  congest.NewWalkSession(in.topo, info, children, steps, in.opts.Engine...),
			ecc:   congest.NewEccSession(in.topo, info, waveDuration, in.opts.Engine...),
			check: check,
		}
	}
}

func (s *walkEcc) Eval(u0 int) (int, congest.Metrics, error) {
	if s.check != nil {
		if err := s.check(u0); err != nil {
			return 0, congest.Metrics{}, err
		}
	}
	tau, m, err := s.walk.Eval(u0)
	if err != nil {
		return 0, m, err
	}
	value, mRest, err := s.ecc.Eval(tau)
	m.Add(mRest)
	return value, m, err
}

func (s *walkEcc) Close() { s.walk.Close(); s.ecc.Close() }

// singleEcc is the Section 3.1 Evaluation: a single wave from u0 (a
// scheduled BFS) followed by a convergecast of max dv to the leader —
// "build BFS(u0), converge-cast ecc(u0)". Each Evaluation resets the
// session with the tau assignment where only u0 initiates (tau' = 0). It
// computes f(u0) = hop ecc(u0), the objective of ExactDiameterSimple,
// Radius and Eccentricities on unweighted graphs.
type singleEcc struct {
	ecc  *congest.EccSession
	tau  []int
	last int
}

func newSingleEcc(in *instance) evalSession {
	tau := make([]int, in.topo.N())
	for i := range tau {
		tau[i] = -1
	}
	return &singleEcc{ecc: congest.NewEccSession(in.topo, in.info, 2*in.info.D+1, in.opts.Engine...), tau: tau, last: -1}
}

func (s *singleEcc) Eval(u0 int) (int, congest.Metrics, error) {
	if s.last >= 0 {
		s.tau[s.last] = -1
	}
	s.tau[u0], s.last = 0, u0
	return s.ecc.Eval(s.tau)
}

func (s *singleEcc) Close() { s.ecc.Close() }
