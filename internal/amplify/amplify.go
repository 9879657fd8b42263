// Package amplify implements the quantum search machinery of Sections 2.3
// and 2.4 of the paper: amplitude amplification for an unknown number of
// marked items (Theorem 6, using the standard BBHT exponential schedule)
// and quantum maximum finding (Corollary 1, the Dürr-Høyer threshold climb).
//
// Every routine counts how many times it applies the Setup and Evaluation
// black boxes. Theorem 7 turns those counts into distributed round
// complexities: each amplification iteration costs two Evaluation
// applications (mark, unmark) and two Setup applications (the reflection
// about the initial state is Setup^{-1}, a |0>-phase flip, Setup), plus one
// classical Evaluation per measurement verification.
package amplify

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"qcongest/internal/qsim"
)

// Counters tallies black-box applications during a quantum procedure.
type Counters struct {
	GroverIterations int // amplitude-amplification steps performed
	SetupCalls       int // applications of Setup or its inverse
	EvaluationCalls  int // applications of Evaluation or its inverse
	Measurements     int // full measurements of the internal register
	Phases           int // threshold updates / epsilon halvings (FindMax)
}

func (c *Counters) add(o Counters) {
	c.GroverIterations += o.GroverIterations
	c.SetupCalls += o.SetupCalls
	c.EvaluationCalls += o.EvaluationCalls
	c.Measurements += o.Measurements
	c.Phases += o.Phases
}

// ErrNotFound is returned by Search when no marked element was found within
// the iteration budget. Callers treat it as "M is (probably) empty".
var ErrNotFound = errors.New("amplify: no marked element found")

// Search runs the BBHT amplitude-amplification loop on the initial state
// phi (the Setup output) with the given marked-set predicate, spending at
// most maxIterations Grover iterations. On success it returns the measured
// marked element. The expected number of iterations is O(sqrt(1/P_M)) when
// the marked probability mass is P_M > 0 (Theorem 6). marked must be a
// fixed predicate for the duration of the call.
func Search(phi *qsim.Sparse, marked func(int) bool, maxIterations int, rng *rand.Rand) (int, Counters, error) {
	return search(phi, newScratch(phi), marked, maxIterations, rng)
}

// scratch is the working memory of search passes: a state that every
// measurement attempt restores to phi in place, and the positions of phi's
// marked labels. A pass's predicate is fixed, so its first Grover iteration
// evaluates it once per label (in ascending label order, like a phase
// flip) and every later iteration replays the positions. FindMax and
// FindAll run all their passes on one scratch, so restarts allocate
// nothing.
type scratch struct {
	s      qsim.Sparse // by value: a scratch costs two allocations
	marked []int
}

func newScratch(phi *qsim.Sparse) *scratch {
	return &scratch{s: *phi.Clone(), marked: make([]int, 0, phi.Len())}
}

// search is Search over a caller-owned scratch.
func search(phi *qsim.Sparse, sc *scratch, marked func(int) bool, maxIterations int, rng *rand.Rand) (int, Counters, error) {
	var c Counters
	if maxIterations < 1 {
		maxIterations = 1
	}
	m := 1.0
	const lambda = 1.2 // BBHT growth factor in (1, 4/3)
	mCap := math.Sqrt(float64(phi.Len())) * 2
	evaluated := false // sc.marked holds this pass's positions
	for c.GroverIterations < maxIterations {
		j := rng.Intn(int(m) + 1)
		if rem := maxIterations - c.GroverIterations; j > rem {
			j = rem
		}
		sc.s.CopyFrom(phi)
		if j > 0 && !evaluated {
			sc.marked, evaluated = phi.Mark(marked, sc.marked[:0]), true
		}
		for i := 0; i < j; i++ {
			sc.s.FlipAt(sc.marked)
			sc.s.ReflectAbout(phi)
		}
		c.GroverIterations += j
		c.SetupCalls += 2*j + 1 // reflections + initial Setup
		c.EvaluationCalls += 2 * j
		x := sc.s.Measure(rng)
		c.Measurements++
		c.EvaluationCalls++ // classical verification of the outcome
		if marked(x) {
			return x, c, nil
		}
		m = math.Min(lambda*m, mCap)
		if j == 0 && m < 1.5 {
			m = 1.5 // ensure progress when the first draw was 0
		}
	}
	return 0, c, ErrNotFound
}

// Budget is the Theorem 6 iteration budget of one search over size labels:
// 3·sqrt(size) iterations, enough for the smallest nonempty marked set (one
// element, mass 1/size), boosted to failure probability delta.
func Budget(size int, delta float64) int {
	return budget(3*math.Sqrt(float64(size)), delta)
}

// budget boosts an expected iteration count iters by ceil(ln(1/delta)), at
// least 1: the one budget shape of Search passes (Budget) and FindMax
// phases (iters = 3/sqrt(eps')).
func budget(iters, delta float64) int {
	boost := math.Ceil(math.Log(1 / delta))
	if boost < 1 {
		boost = 1
	}
	return int(boost*math.Ceil(iters)) + 1
}

// FindAll finds every marked element in the support of phi by repeated
// amplitude-amplified search, excluding each found element from the marked
// set before the next pass. Each pass gets Budget(|support|, delta); the
// procedure stops at the first fruitless pass, so a complete run performs
// |M|+1 searches (|M| when every element is marked). The found elements are
// returned in discovery order (measurement-driven, so seed-dependent but
// deterministic for a fixed rng stream).
func FindAll(phi *qsim.Sparse, marked func(int) bool, delta float64, rng *rand.Rand) ([]int, Counters, error) {
	var c Counters
	if !(delta > 0 && delta < 1) {
		return nil, c, fmt.Errorf("amplify: delta %g out of (0,1)", delta)
	}
	size := phi.Len()
	if size == 0 {
		return nil, c, qsim.ErrEmptyDomain
	}
	passBudget := Budget(size, delta)

	found := make(map[int]bool, 4)
	residual := func(x int) bool { return marked(x) && !found[x] }
	sc := newScratch(phi)
	var out []int
	for len(out) < size {
		x, pass, err := search(phi, sc, residual, passBudget, rng)
		c.add(pass)
		switch {
		case err == nil:
			found[x] = true
			out = append(out, x)
		case errors.Is(err, ErrNotFound):
			return out, c, nil
		default:
			return out, c, err
		}
	}
	return out, c, nil
}

// MaxResult is the outcome of FindMax.
type MaxResult struct {
	Argmax   int
	Value    int
	Counters Counters
}

// FindMax implements Corollary 1 (quantum optimization): it finds an
// element maximizing f over the support of phi with probability at least
// 1-delta, provided the probability mass of maximizing elements under phi
// is at least eps. The procedure follows the paper: keep a threshold a,
// repeatedly amplitude-amplify the set {x : f(x) > f(a)} with a budget
// calibrated to the current epsilon', halving epsilon' after each fruitless
// phase, and stop once epsilon' < eps and a phase finds nothing.
func FindMax(phi *qsim.Sparse, f func(int) int, eps, delta float64, rng *rand.Rand) (MaxResult, error) {
	var res MaxResult
	if !(eps > 0 && eps <= 1) {
		return res, fmt.Errorf("amplify: eps %g out of (0,1]", eps)
	}
	if !(delta > 0 && delta < 1) {
		return res, fmt.Errorf("amplify: delta %g out of (0,1)", delta)
	}
	if phi.Len() == 0 {
		return res, qsim.ErrEmptyDomain
	}

	// Step 1: start from a measured sample of the initial state (a fixed
	// element would do; sampling matches the Dürr-Høyer analysis).
	// Measure leaves phi untouched.
	a := phi.Measure(rng)
	res.Counters.Measurements++
	res.Counters.SetupCalls++
	res.Counters.EvaluationCalls++ // learn f(a)
	fa := f(a)

	epsPrime := 0.5
	marked := func(x int) bool { return f(x) > fa }
	sc := newScratch(phi)
	for {
		b, c, err := search(phi, sc, marked, budget(3/math.Sqrt(epsPrime), delta), rng)
		res.Counters.add(c)
		res.Counters.Phases++
		switch {
		case err == nil:
			a, fa = b, f(b)
		case errors.Is(err, ErrNotFound):
			if epsPrime <= eps {
				res.Argmax, res.Value = a, fa
				return res, nil
			}
			epsPrime /= 2
		default:
			return res, err
		}
	}
}
