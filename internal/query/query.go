// Package query is the reusable distributed quantum-query layer: generic
// Search, Minimum/Maximum, Count and EvalAll over any Session-backed
// evaluation oracle, in the style of the distributed-query frameworks that
// followed the paper (van Apeldoorn–de Vos). An Oracle describes one
// distributed Evaluation family — its domain, its measured Initialization
// and Setup costs, and a factory of independent evaluation contexts — and
// the package runs the quantum machinery of internal/qcongest (Theorem 7
// round accounting) and internal/amplify (amplitude amplification) over it.
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
// configuration the oracle's sessions were built with.
package query

import (
	"fmt"
	"math/rand"

	"qcongest/internal/congest"
	"qcongest/internal/qcongest"
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

// Options configures one query.
type Options struct {
	// Delta is the allowed failure probability (default 0.1).
	Delta float64
	// Seed drives all measurements.
	Seed int64
	// Parallel is the number of cloned evaluation contexts used to run
	// independent Evaluations concurrently (<= 1: one context, sequential).
	// The computed Result is identical for every value.
	Parallel int
}

func (o Options) delta() float64 {
	if o.Delta <= 0 || o.Delta >= 1 {
		return 0.1
	}
	return o.Delta
}

func (o Options) parallel() int {
	if o.Parallel < 1 {
		return 1
	}
	return o.Parallel
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

// evalBackend is the evaluation machinery one query runs on: a pool of
// solo Contexts, a sequential evaluator on context 0 for the lazy path, and
// an optional whole-domain batch over the pool (nil: the query evaluates
// lazily).
type evalBackend struct {
	evaluate qcongest.EvalProc
	// batch precomputes the whole domain (errors wrapped "evaluate <x>"
	// for the smallest failing element).
	batch func([]int) ([]int, []int, error)
	pool  *congest.Pool[Context]
}

func (b *evalBackend) close() { b.pool.Close(func(c Context) { c.Close() }) }

// contextPool builds the evaluation backend every query runs on: context 0
// serves the sequential path, and the whole pool serves batched
// evaluation. The batch closure is nil when the query should evaluate
// lazily (sequential solo), mirroring qcongest's contract.
func contextPool(o Oracle, opts Options, negate bool) *evalBackend {
	parallel := opts.parallel()
	pool, _ := congest.NewPool(parallel, func(int) (Context, error) { return o.NewContext(), nil })
	b := &evalBackend{pool: pool, evaluate: pool.Get(0).Eval}
	if negate {
		inner := b.evaluate
		b.evaluate = func(x int) (int, int, error) {
			v, r, err := inner(x)
			return -v, r, err
		}
	}
	if parallel > 1 {
		// Precompute every domain value on the pool. The amplification then
		// runs entirely against the memoized table; since evaluations are
		// deterministic, the Result is the one sequential evaluation yields.
		b.batch = func(domain []int) ([]int, []int, error) {
			values := make([]int, len(domain))
			rounds := make([]int, len(domain))
			err := pool.Do(len(domain), func(j int, c Context) error {
				v, r, err := c.Eval(domain[j])
				if err != nil {
					return fmt.Errorf("evaluate %d: %w", domain[j], err)
				}
				if negate {
					v = -v
				}
				values[j], rounds[j] = v, r
				return nil
			})
			return values, rounds, err
		}
	}
	return b
}

// optimize is the shared body of Maximum and Minimum: quantum optimization
// (Dürr–Høyer via qcongest.Optimizer) over the oracle, negating values for
// minimization (the threshold climb is symmetric).
func optimize(o Oracle, eps float64, opts Options, minimize bool) (Result, error) {
	be := contextPool(o, opts, minimize)
	defer be.close()

	opt := &qcongest.Optimizer{
		Domain:      o.Domain(),
		Evaluate:    be.evaluate,
		InitRounds:  o.InitRounds(),
		SetupRounds: o.SetupRounds(),
		Eps:         eps,
		Delta:       opts.delta(),
		Rng:         rand.New(rand.NewSource(opts.Seed)),
	}
	opt.Batch = be.batch
	qr, err := opt.Run()
	if err != nil {
		return Result{}, err
	}
	value := qr.Value
	if minimize {
		value = -value
	}
	return Result{
		X:            qr.Argmax,
		Value:        value,
		Found:        true,
		Rounds:       qr.Rounds,
		InitRounds:   o.InitRounds(),
		SetupRounds:  o.SetupRounds(),
		EvalRounds:   qr.ClassicalEvalRounds,
		Iterations:   qr.Counters.GroverIterations,
		LeaderQubits: qr.LeaderQubits,
		NodeQubits:   qr.NodeQubits,
	}, nil
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
	be := contextPool(o, opts, false)
	defer be.close()

	s := &qcongest.Searcher{
		Domain:      o.Domain(),
		Evaluate:    be.evaluate,
		Marked:      marked,
		InitRounds:  o.InitRounds(),
		SetupRounds: o.SetupRounds(),
		Batch:       be.batch,
		Delta:       opts.delta(),
		Rng:         rand.New(rand.NewSource(opts.Seed)),
	}
	var sr qcongest.SearchOutcome
	var err error
	if count {
		sr, err = s.RunCount()
	} else {
		sr, err = s.Run()
	}
	if err != nil {
		return Result{}, err
	}
	return Result{
		X:            sr.X,
		Value:        sr.Value,
		Found:        sr.Found,
		All:          sr.All,
		Count:        sr.Count,
		Rounds:       sr.Rounds,
		InitRounds:   o.InitRounds(),
		SetupRounds:  o.SetupRounds(),
		EvalRounds:   sr.ClassicalEvalRounds,
		Iterations:   sr.Counters.GroverIterations,
		LeaderQubits: sr.LeaderQubits,
		NodeQubits:   sr.NodeQubits,
	}, nil
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
// asserts (the property the quantum queries rely on).
func EvalAll(o Oracle, opts Options) (values []int, evalRounds int, err error) {
	be := contextPool(o, opts, false)
	defer be.close()

	domain := o.Domain()
	values = make([]int, len(domain))
	rounds := make([]int, len(domain))
	if err := be.pool.Do(len(domain), func(j int, c Context) error {
		v, r, err := c.Eval(domain[j])
		if err != nil {
			return err
		}
		values[j], rounds[j] = v, r
		return nil
	}); err != nil {
		return nil, 0, err
	}
	if len(domain) == 0 {
		return values, 0, nil
	}
	evalRounds = rounds[0]
	for j, r := range rounds {
		if r != evalRounds {
			return nil, 0, fmt.Errorf("query: evaluation cost depends on input: %d rounds at element %d, %d at element %d", r, domain[j], evalRounds, domain[0])
		}
	}
	return values, evalRounds, nil
}
