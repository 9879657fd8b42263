// Package query is the reusable distributed quantum-query layer: generic
// Search, Minimum/Maximum, Count and EvalAll over any Session-backed
// evaluation oracle, in the style of the distributed-query frameworks that
// followed the paper (van Apeldoorn–de Vos). An Oracle describes one
// distributed Evaluation family — its domain, its measured Initialization
// and Setup costs, and a factory of independent evaluation contexts — and
// the package runs amplitude amplification (internal/amplify) over it and
// charges the distributed costs per Theorem 7.
//
// # Cost model (Theorem 7)
//
// A leader runs amplitude amplification whose Setup and Evaluation black
// boxes are distributed procedures executed by the whole network in
// superposition. The simulator tracks amplitudes over the domain X and
// runs the (classical, reversible) Evaluation per basis label, so a query
// charges
//
//	Rounds = InitRounds + SetupCalls·SetupRounds + EvaluationCalls·(2·EvalRounds+1)
//
// where one reversible Evaluation is compute, copy out, uncompute, and the
// call counts are amplify's. This is sound only if Evaluation costs the
// same number of rounds on every input: that input-independence is what
// makes running it in superposition cost a single execution, and every
// query asserts it. Every node holds 5·⌈log₂(|X|+1)⌉ qubits of working
// registers; the leader additionally records one label per amplification
// phase: ⌈log₂(1/eps)⌉+1 phases for Maximum and Minimum, one for Search
// and Count (the labels Count finds are measured, so classical).
//
// Every algorithm of internal/core is one call into this package; the
// golden-compatibility tests of internal/core pin that port to the
// pre-refactor outputs bit for bit.
//
// # Determinism
//
// For a fixed Oracle and Options, every function here is deterministic:
// measurements are driven by rand.New(rand.NewSource(Seed)), evaluations
// are memoized per run, and Options.Parallel only changes which cloned
// context computes each value — the values themselves are deterministic and
// the amplification consumes the memo table, so results, round counts and
// qubit counts are identical for every Parallel value and every engine
// option the oracle's sessions were built with.
//
// # Batching
//
// With more than one context a query batches: it evaluates the whole
// domain on the pool up front, then amplifies against the memo table.
// Under the automatic default (Parallel 0) only the queries that provably
// touch every label batch — Maximum, Minimum, Count (each ends with a
// fruitless amplification pass, whose phase flip evaluates every label,
// unless Count has already found every label) and EvalAll. Search stays lazy there, because its first measurement
// often hits a marked label after evaluating a fraction of the domain. An
// explicit Parallel > 1 batches every query. Batching can surface an
// Evaluation error at a label the lazy path would not have reached, or at
// a different label than the one the lazy path hits first: the batch
// reports the smallest failing domain position.
package query

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"qcongest/internal/amplify"
	"qcongest/internal/congest"
	"qcongest/internal/qsim"
)

// Context is one independent evaluation context: Eval computes the
// distributed Evaluation for one input and reports the measured round count
// of one classical execution. Contexts returned by the same Oracle share no
// mutable state, so distinct contexts may evaluate concurrently (each one
// still evaluates serially).
type Context interface {
	Eval(x int) (value, rounds int, err error)
	Close()
}

// Oracle describes one distributed Evaluation family to run queries over.
type Oracle interface {
	// Domain is the set X the query ranges over (basis labels of the
	// internal register; typically vertex ids).
	Domain() []int
	// InitRounds is T0, the measured cost of the preparatory distributed
	// phases (preprocessing, probes) — charged once.
	InitRounds() int
	// SetupRounds is the measured cost of one Setup application (broadcast
	// of the leader's register along the BFS tree).
	SetupRounds() int
	// NewContext builds one independent evaluation context. Each context is
	// backed by its own reusable sessions (congest.Session): the caller
	// closes it when the query completes.
	NewContext() Context
}

// Concurrent is optionally implemented by an Oracle whose contexts are
// independent CONGEST sessions, safe to evaluate concurrently; each runs
// its engine on one goroutine. Under Parallel 0 a query clones
// congest.Contexts(|domain|) = min(GOMAXPROCS, |domain|) contexts of such
// an oracle; an oracle without the method runs on one context, since the
// query cannot tell whether its contexts are safe to run concurrently.
type Concurrent interface {
	ConcurrentContexts()
}

// Options configures one query.
type Options struct {
	// Delta is the allowed failure probability (default 0.1).
	Delta float64
	// Seed drives all measurements.
	Seed int64
	// Parallel is the number of cloned evaluation contexts used to run
	// independent Evaluations concurrently. 0 selects the automatic CPU
	// budget (see Concurrent and the package doc's "Batching"), 1 runs
	// one context sequentially, and negative values act as 1. The computed
	// Result is identical for every value.
	Parallel int
}

func (o Options) delta() float64 {
	if !(o.Delta > 0 && o.Delta < 1) {
		return 0.1
	}
	return o.Delta
}

func (o Options) rng() *rand.Rand { return rand.New(rand.NewSource(o.Seed)) }

// contexts returns how many evaluation contexts a query over oracle o
// clones: never more than its domain has labels, since a context without
// a label to evaluate only costs its sessions. touchesAll reports whether
// the query evaluates every domain label whatever its measurements: only
// those queries batch under the automatic budget, since batching the
// others can waste Evaluations.
func (opts Options) contexts(o Oracle, touchesAll bool) int {
	jobs := len(o.Domain())
	switch {
	case opts.Parallel > 0:
		return max(1, min(opts.Parallel, jobs))
	case opts.Parallel < 0 || !touchesAll:
		return 1
	}
	if _, ok := o.(Concurrent); ok {
		return congest.Contexts(jobs)
	}
	return 1
}

// Result reports one query outcome together with its measured costs.
type Result struct {
	// X is the returned domain element: the argmax/argmin of an
	// optimization, or the found element of a search (valid when Found).
	X int
	// Value is the Evaluation value at X.
	Value int
	// Found reports whether Search measured a marked element (always true
	// for successful optimizations; for Count, true iff Count > 0).
	Found bool
	// All and Count list the marked elements found by Count, in discovery
	// order.
	All   []int
	Count int
	// Rounds is the total distributed round complexity per Theorem 7.
	Rounds int
	// InitRounds, SetupRounds and EvalRounds are the measured costs of the
	// three framework operations (Evaluation: one classical execution).
	InitRounds  int
	SetupRounds int
	EvalRounds  int
	// Iterations is the number of amplitude-amplification steps performed.
	Iterations int
	// LeaderQubits / NodeQubits are the quantum memory accounting.
	LeaderQubits int
	NodeQubits   int
}

// evaluator runs one query's Evaluations on a pool of cloned Contexts:
// lazily on context 0 through the memo (f), or for the whole domain at once
// on the pool (batch). Both paths go through record, the one round
// uniformity check.
type evaluator struct {
	oracle Oracle
	domain []int
	pool   *congest.Pool[Context]
	// negate flips every value, so Minimum can maximize.
	negate bool
	// memo holds the values a quantum query has seen (nil for EvalAll).
	memo map[int]int
	// rounds is the measured cost of one classical Evaluation, -1 until the
	// first one.
	rounds int
	// err is the first error of the lazy path, which amplification cannot
	// stop at; the query reports it when the amplification returns.
	err error
}

func newEvaluator(o Oracle, contexts int, negate bool) *evaluator {
	pool, _ := congest.NewPool(contexts, func(int) (Context, error) { return o.NewContext(), nil })
	return &evaluator{oracle: o, domain: o.Domain(), pool: pool, negate: negate, rounds: -1}
}

func (e *evaluator) close() { e.pool.Close(func(c Context) { c.Close() }) }

func (e *evaluator) eval(c Context, x int) (int, int, error) {
	v, r, err := c.Eval(x)
	if e.negate {
		v = -v
	}
	return v, r, err
}

// record memoizes value for x and asserts that x's Evaluation cost the
// same rounds as every one before it.
func (e *evaluator) record(x, value, rounds int) error {
	if e.memo != nil {
		e.memo[x] = value
	}
	if e.rounds == -1 {
		e.rounds = rounds
	} else if rounds != e.rounds {
		return fmt.Errorf("query: evaluation cost depends on input: %d rounds at element %d, %d before", rounds, x, e.rounds)
	}
	return nil
}

// f is the lazy path, the value oracle amplification runs against: x's
// value from the memo, or from one Evaluation on context 0.
func (e *evaluator) f(x int) int {
	if v, ok := e.memo[x]; ok {
		return v
	}
	v, r, err := e.eval(e.pool.Get(0), x)
	if err != nil {
		v, err = 0, fmt.Errorf("evaluate %d: %w", x, err)
	} else {
		err = e.record(x, v, r)
	}
	if e.err == nil {
		e.err = err
	}
	return v
}

// batch evaluates the whole domain on the pool and returns the values in
// domain order. An Evaluation error is the one at the smallest domain
// position, wrapped "evaluate <x>" when wrap is set.
func (e *evaluator) batch(wrap bool) ([]int, error) {
	values := make([]int, len(e.domain))
	rounds := make([]int, len(e.domain))
	err := e.pool.Do(len(e.domain), func(j int, c Context) error {
		v, r, err := e.eval(c, e.domain[j])
		if err != nil && wrap {
			err = fmt.Errorf("evaluate %d: %w", e.domain[j], err)
		}
		values[j], rounds[j] = v, r
		return err
	})
	if err != nil {
		return nil, err
	}
	for j, x := range e.domain {
		if err := e.record(x, values[j], rounds[j]); err != nil {
			return nil, err
		}
	}
	return values, nil
}

// prepare readies a quantum query: with more than one context it fills the
// memo from one batch, and it returns the uniform initial state over the
// domain. Since evaluations are deterministic, amplifying against the
// filled memo gives the Result the lazy path gives.
func (e *evaluator) prepare() (*qsim.Sparse, error) {
	e.memo = make(map[int]int, len(e.domain))
	if e.pool.Size() > 1 {
		if _, err := e.batch(true); err != nil {
			return nil, err
		}
	}
	return qsim.NewUniform(e.domain)
}

// charge completes res with the query's costs (see the package doc's "Cost
// model"): c are the amplification's counters, and the leader records
// phases domain labels.
func (e *evaluator) charge(res Result, c amplify.Counters, phases int) (Result, error) {
	if e.err != nil {
		return Result{}, e.err
	}
	res.InitRounds = e.oracle.InitRounds()
	res.SetupRounds = e.oracle.SetupRounds()
	res.EvalRounds = e.rounds
	res.Rounds = res.InitRounds + c.SetupCalls*res.SetupRounds + c.EvaluationCalls*(2*e.rounds+1)
	res.Iterations = c.GroverIterations
	logX := max(1, int(math.Ceil(math.Log2(float64(len(e.domain)+1)))))
	res.NodeQubits = 5 * logX
	res.LeaderQubits = res.NodeQubits + logX*phases
	return res, nil
}

// optimize is the shared body of Maximum and Minimum: Dürr–Høyer maximum
// finding over the oracle, negating values for minimization (the threshold
// climb is symmetric).
func optimize(o Oracle, eps float64, opts Options, minimize bool) (Result, error) {
	e := newEvaluator(o, opts.contexts(o, true), minimize)
	defer e.close()
	phi, err := e.prepare()
	if err != nil {
		return Result{}, err
	}
	mr, err := amplify.FindMax(phi, e.f, eps, opts.delta(), opts.rng())
	if err != nil {
		return Result{}, err
	}
	value := mr.Value
	if minimize {
		value = -value
	}
	phases := int(math.Ceil(math.Log2(1/eps))) + 1
	return e.charge(Result{X: mr.Argmax, Value: value, Found: true}, mr.Counters, phases)
}

// Maximum finds a domain element maximizing the oracle's Evaluation value,
// with failure probability at most Options.Delta, provided the probability
// mass of maximizers under the uniform initial state is at least eps.
func Maximum(o Oracle, eps float64, opts Options) (Result, error) {
	return optimize(o, eps, opts, false)
}

// Minimum is Maximum's minimization twin (Dürr–Høyer is symmetric: amplify
// over negated values); eps then bounds the mass of minimizers.
func Minimum(o Oracle, eps float64, opts Options) (Result, error) {
	return optimize(o, eps, opts, true)
}

// search is the shared body of Search and Count.
func search(o Oracle, marked func(value int) bool, opts Options, count bool) (Result, error) {
	// Count ends with a fruitless pass that evaluates every label; one
	// Search can stop at its first measurement.
	e := newEvaluator(o, opts.contexts(o, count), false)
	defer e.close()
	phi, err := e.prepare()
	if err != nil {
		return Result{}, err
	}
	isMarked := func(x int) bool { return marked(e.f(x)) }
	var res Result
	var c amplify.Counters
	if count {
		res.All, c, err = amplify.FindAll(phi, isMarked, opts.delta(), opts.rng())
		if err != nil {
			return Result{}, err
		}
		res.Count = len(res.All)
		if res.Count > 0 {
			res.Found, res.X = true, res.All[0]
		}
	} else {
		res.X, c, err = amplify.Search(phi, isMarked, amplify.Budget(len(e.domain), opts.delta()), opts.rng())
		switch {
		case err == nil:
			res.Found = true
		case !errors.Is(err, amplify.ErrNotFound):
			return Result{}, err
		}
	}
	if res.Found {
		res.Value = e.f(res.X)
	}
	return e.charge(res, c, 1)
}

// Search runs one BBHT amplitude-amplified search for a domain element
// whose Evaluation value satisfies marked. A not-found outcome is reported
// through Result.Found=false, not an error: with probability at least
// 1-Options.Delta the marked set is then empty, and the rounds spent by the
// fruitless amplification are charged to the Result either way.
func Search(o Oracle, marked func(value int) bool, opts Options) (Result, error) {
	return search(o, marked, opts, false)
}

// Count enumerates every marked domain element by the search-and-exclude
// loop and reports the exact count with probability at least 1-Delta.
func Count(o Oracle, marked func(value int) bool, opts Options) (Result, error) {
	return search(o, marked, opts, true)
}

// EvalAll runs one Evaluation per domain element on the context pool (the
// straight-line, non-quantum use of an oracle: internal/core's
// Eccentricities) and returns the per-element values in domain order
// together with the uniform per-evaluation round count, which EvalAll
// asserts (the property the quantum queries rely on). An Evaluation error
// is returned as the oracle reported it.
func EvalAll(o Oracle, opts Options) (values []int, evalRounds int, err error) {
	e := newEvaluator(o, opts.contexts(o, true), false)
	defer e.close()
	if values, err = e.batch(false); err != nil {
		return nil, 0, err
	}
	return values, max(e.rounds, 0), nil // rounds is -1 on an empty domain
}
