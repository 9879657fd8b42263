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
// Every Evaluation is executed as a real message-passing CONGEST program
// (internal/congest) whose round count is measured, and the quantum layer
// charges rounds per Theorem 7 (internal/query). Each algorithm builds
// its walk/wave sessions once (congest.WalkSession, congest.EccSession) and
// every Evaluation is a Reset+Run on them — bit-identical to fresh
// networks, without rebuilding topology tables, programs or arenas per
// execution. Options.Parallel builds further contexts from the same
// constructors into a congest.Pool and runs independent Evaluations
// concurrently — by default as many contexts as the CPU budget leaves
// beside each context's engine workers; results are identical for any
// value.
package core

import (
	"errors"
	"fmt"
	"math"

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
	// automatic CPU budget: each context's engine takes its workers
	// (congest.Topology.EngineWorkers), and congest.Contexts fills the rest
	// of GOMAXPROCS with contexts; 1 runs one context sequentially, and
	// k > 1 is an explicit override. Evaluations are deterministic and
	// their values input-independent, so the computed Result is identical
	// for every value; the knob only trades wall-clock time, like
	// congest.WithWorkers. Negative values are rejected by every entry
	// point (see Options.validate).
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
	// (e.g. congest.WithWorkers). Results are engine-independent: the
	// parallel engine is deterministic, so Engine only affects wall-clock
	// time.
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
// the default). Every public entry point calls this before building any
// topology or session.
func (o Options) validate() error {
	if o.Parallel < 0 {
		return fmt.Errorf("core: Options.Parallel %d is negative (0 selects the automatic CPU budget, 1 sequential evaluation)", o.Parallel)
	}
	if math.IsNaN(o.Delta) {
		return errors.New("core: Options.Delta is NaN (0 selects the default 0.1)")
	}
	return nil
}

// ErrTrivial marks graphs handled without any quantum phase (n <= 2).
var errTrivial = errors.New("core: trivial instance")

func trivialDiameter(g *graph.Graph) (Result, error) {
	switch g.N() {
	case 0, 1:
		return Result{Diameter: 0}, nil
	case 2:
		// Two isolated vertices are the one disconnected case the
		// topology validation below never sees.
		if !g.HasEdge(0, 1) {
			return Result{}, graph.ErrDisconnected
		}
		return Result{Diameter: 1}, nil
	}
	return Result{}, errTrivial
}

// evalContext is one independent Evaluation context: the sessions backing
// eval share no mutable state with any other context, so distinct contexts
// may evaluate concurrently (each one still evaluates serially). Its Eval
// and Close methods implement query.Context.
type evalContext struct {
	eval  func(u0 int) (value, rounds int, err error)
	close func()
}

// Eval implements query.Context.
func (c *evalContext) Eval(x int) (value, rounds int, err error) { return c.eval(x) }

// Close implements query.Context.
func (c *evalContext) Close() { c.close() }

// evalFamily is one Evaluation family: the factory of independent
// evaluation contexts every query runs on.
type evalFamily func() *evalContext

// ctxOracle adapts an evalFamily plus the measured framework costs into a
// query.Oracle — the bridge every entry point in this package crosses into
// the shared query layer.
type ctxOracle struct {
	domain      []int
	initRounds  int
	setupRounds int
	family      evalFamily
	// workers is the engine worker count of one context's sessions
	// (Topology.EngineWorkers under Options.Engine); the query layer's
	// automatic budget clones contexts around it.
	workers int
}

func (o ctxOracle) Domain() []int             { return o.domain }
func (o ctxOracle) EngineWorkers() int        { return o.workers }
func (o ctxOracle) InitRounds() int           { return o.initRounds }
func (o ctxOracle) SetupRounds() int          { return o.setupRounds }
func (o ctxOracle) NewContext() query.Context { return o.family() }

// ExactDiameterSimple runs the Section 3.1 algorithm: quantum maximum
// finding over f(u) = ecc(u) with P_opt >= 1/n, giving Õ(sqrt(n)·D) rounds.
func ExactDiameterSimple(g *graph.Graph, opts Options) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
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
	n := g.N()
	d := info.D

	return runOptimization(singleEccContext(topo, info, opts), topo, opts, optimizationParams{
		domain:      identityDomain(n),
		eps:         1 / float64(n),
		initRounds:  pre.Rounds,
		setupRounds: d + 1,
	})
}

// ExactDiameter runs the Theorem 1 algorithm (Section 3.2): quantum maximum
// finding over f(u0) = max_{v in S(u0)} ecc(v), where S(u0) covers every
// vertex with probability >= d/2n (Lemma 1), giving Õ(sqrt(n·D)) rounds.
func ExactDiameter(g *graph.Graph, opts Options) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
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
	n := g.N()
	d := info.D

	// Evaluation for input u0 is exactly Figure 2: a 2d-step DFS walk from
	// u0 assigning tau', the 6d-round wave process over S(u0), and the
	// bottom-up max convergecast. All three phases have input-independent
	// round counts. The walk and wave sessions are built once per context
	// and every eval(u0) is a Reset+Run.
	fam := walkEccFamily(topo, info, info.Children, 2*d, 6*d+2, nil, opts)

	eps := float64(d) / (2 * float64(n)) // Lemma 1
	if eps > 1 {
		eps = 1
	}
	return runOptimization(fam, topo, opts, optimizationParams{
		domain:      identityDomain(n),
		eps:         eps,
		initRounds:  pre.Rounds,
		setupRounds: d + 1,
	})
}

// walkEccFamily builds the Figure 2 Evaluation family shared by
// ExactDiameter and ApproxDiameter: a steps-bounded token walk assigning
// tau', then the wave process and max convergecast. check, when non-nil,
// validates an input before any session runs (ApproxDiameter's R-membership
// guard).
func walkEccFamily(topo *congest.Topology, info *congest.PreInfo, children [][]int,
	steps, waveDuration int, check func(u0 int) error, opts Options) evalFamily {
	return func() *evalContext {
		walk := congest.NewWalkSession(topo, info, children, steps, opts.Engine...)
		ecc := congest.NewEccSession(topo, info, waveDuration, opts.Engine...)
		return &evalContext{
			eval: func(u0 int) (int, int, error) {
				if check != nil {
					if err := check(u0); err != nil {
						return 0, 0, err
					}
				}
				tau, mWalk, err := walk.Eval(u0)
				if err != nil {
					return 0, 0, err
				}
				value, mRest, err := ecc.Eval(tau)
				if err != nil {
					return 0, 0, err
				}
				return value, mWalk.Rounds + mRest.Rounds, nil
			},
			close: func() { walk.Close(); ecc.Close() },
		}
	}
}

// ApproxDiameter runs the Theorem 4 algorithm (Section 4, Figure 3): the
// [HPRW14] preparation selects the set R of the s closest vertices to w,
// and quantum optimization computes max_{v in R} ecc(v) in Õ(sqrt(s·D))
// rounds. With s = Theta(n^{2/3} D^{-1/3}) the total is Õ(cbrt(n·D) + D),
// and the output Dhat satisfies floor(2D/3) <= Dhat <= D with high
// probability.
func ApproxDiameter(g *graph.Graph, opts Options) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	if r, err := trivialDiameter(g); !errors.Is(err, errTrivial) {
		return r, err
	}
	topo, err := congest.NewTopology(g)
	if err != nil {
		return Result{}, err
	}
	n := g.N()

	// Choose s = n^{2/3} d^{-1/3} using the free 2-approximation
	// d = ecc(leader); a preliminary Preprocess supplies d. The probe is a
	// real distributed phase, so its rounds are charged to InitRounds
	// below, together with the preparation's.
	infoProbe, probeM, err := congest.PreprocessOn(topo, opts.Engine...)
	if err != nil {
		return Result{}, err
	}
	dProbe := infoProbe.D
	s := opts.S
	if s <= 0 {
		s = int(math.Ceil(math.Pow(float64(n), 2.0/3.0) / math.Pow(math.Max(1, float64(dProbe)), 1.0/3.0)))
	}
	if s < 1 {
		s = 1
	}
	if s > n {
		s = n
	}

	prep, preM, err := congest.PrepareApproxOn(topo, s, opts.Seed, opts.Engine...)
	if err != nil {
		return Result{}, err
	}
	info := prep.Info
	d := info.D

	// The window width on the R-subtree tour: Lemma 1's argument needs the
	// window to exceed the subtree depth by 2d, so that any window ending
	// in a top-down move contains at least d top-down moves. (The paper
	// keeps the width 2d and replaces "mod 2n" by "mod 2s"; widening to
	// 2(tStar + d) preserves both the O(D) evaluation cost, since tStar <=
	// ecc(w) <= 2d, and the coverage bound P_opt >= d/2s.)
	tStar := 0
	for v := 0; v < n; v++ {
		if prep.RMembers[v] && prep.WDepth[v] > tStar {
			tStar = prep.WDepth[v]
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
	waveDuration := 2*window + 2*d + 2

	domain := make([]int, 0, prep.RSize)
	for v := 0; v < n; v++ {
		if prep.RMembers[v] {
			domain = append(domain, v)
		}
	}

	inR := func(u0 int) error {
		if !prep.RMembers[u0] {
			return fmt.Errorf("core: evaluation input %d outside R", u0)
		}
		return nil
	}
	fam := walkEccFamily(topo, wInfo, prep.RChild, window, waveDuration, inR, opts)

	eps := float64(d) / (2 * float64(prep.RSize))
	if eps > 1 {
		eps = 1
	}
	return runOptimization(fam, topo, opts, optimizationParams{
		domain:      domain,
		eps:         eps,
		initRounds:  probeM.Rounds + preM.Rounds,
		setupRounds: tStar + 1, // broadcast down the R-subtree
	})
}

type optimizationParams struct {
	domain      []int
	eps         float64
	initRounds  int
	setupRounds int
	// minimize runs quantum minimum finding instead of maximum finding
	// (Dürr–Høyer is symmetric: amplify over negated values). Used by the
	// radius entry points; eps then bounds the mass of minimizers.
	minimize bool
}

// singleEccContext is the Section 3.1 Evaluation: a single wave from u0 (a
// scheduled BFS) followed by a convergecast of max dv to the leader —
// "build BFS(u0), converge-cast ecc(u0)". The wave and convergecast sessions
// are built once per context; each eval resets them with the tau assignment
// where only u0 initiates (tau' = 0). It computes f(u0) = ecc(u0), the
// objective of ExactDiameterSimple, Radius and Eccentricities.
func singleEccContext(topo *congest.Topology, info *congest.PreInfo, opts Options) evalFamily {
	n := topo.N()
	waveDuration := 2*info.D + 1
	return func() *evalContext {
		ecc := congest.NewEccSession(topo, info, waveDuration, opts.Engine...)
		tau := make([]int, n)
		for i := range tau {
			tau[i] = -1
		}
		last := -1
		return &evalContext{
			eval: func(u0 int) (int, int, error) {
				if last >= 0 {
					tau[last] = -1
				}
				tau[u0], last = 0, u0
				value, m, err := ecc.Eval(tau)
				if err != nil {
					return 0, 0, err
				}
				return value, m.Rounds, nil
			},
			close: ecc.Close,
		}
	}
}

// weightedEccContext is the weighted Evaluation: one fixed-duration
// Bellman–Ford relaxation from u0 plus a weighted max convergecast,
// computing f(u0) = weighted ecc(u0). On an unweighted graph it degenerates
// to hop eccentricities (all weights 1).
func weightedEccContext(topo *congest.Topology, info *congest.PreInfo, opts Options) evalFamily {
	return func() *evalContext {
		ecc := congest.NewWeightedEccSession(topo, info, opts.Engine...)
		return &evalContext{
			eval: func(u0 int) (int, int, error) {
				value, m, err := ecc.Eval(u0)
				if err != nil {
					return 0, 0, err
				}
				return value, m.Rounds, nil
			},
			close: ecc.Close,
		}
	}
}

// runOptimization runs quantum maximum (or minimum) finding over the
// Evaluation family, whose sessions run on topo, through the shared query
// layer; the golden tests pin this path to the pre-refactor outputs bit
// for bit.
func runOptimization(fam evalFamily, topo *congest.Topology, opts Options, p optimizationParams) (Result, error) {
	oracle := ctxOracle{
		domain:      p.domain,
		initRounds:  p.initRounds,
		setupRounds: p.setupRounds,
		family:      fam,
		workers:     topo.EngineWorkers(opts.Engine...),
	}
	qopts := query.Options{Delta: opts.delta(), Seed: opts.Seed, Parallel: opts.Parallel}
	var qr query.Result
	var err error
	if p.minimize {
		qr, err = query.Minimum(oracle, p.eps, qopts)
	} else {
		qr, err = query.Maximum(oracle, p.eps, qopts)
	}
	if err != nil {
		return Result{}, err
	}
	return Result{
		Diameter:     qr.Value,
		Rounds:       qr.Rounds,
		InitRounds:   qr.InitRounds,
		SetupRounds:  qr.SetupRounds,
		EvalRounds:   qr.EvalRounds,
		Iterations:   qr.Iterations,
		LeaderQubits: qr.LeaderQubits,
		NodeQubits:   qr.NodeQubits,
	}, nil
}

func identityDomain(n int) []int {
	d := make([]int, n)
	for i := range d {
		d[i] = i
	}
	return d
}
