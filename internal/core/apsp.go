package core

// Quantum APSP and the sublinear weighted Evaluation — the Wang–Wu–Yao
// ("Eccentricities and All-Pairs Shortest Paths in the Quantum CONGEST
// Model") and Wu–Yao ("Quantum Complexity of Weighted Diameter and Radius
// in CONGEST Networks") follow-ups, instantiated on this repository's
// measured-round framework. Both papers replace the Θ(n)-round weighted
// eccentricity Evaluation (one full Bellman–Ford relaxation) with a
// skeleton distance oracle: after an init phase that samples a skeleton S
// and preprocesses skeleton-to-vertex distances, one Evaluation from any
// source costs Õ(sqrt(n) + D) rounds — a hop-bounded relaxation, a
// pipelined relay of |S| values through the BFS tree, and a convergecast
// (congest.SkelOracle implements the three phases; see DESIGN.md "Quantum
// APSP" for the schedule).
//
// On top of the oracle:
//
//   - WeightedDiameter / WeightedRadius with Options.Sublinear run quantum
//     maximum/minimum finding over the oracle-backed eccentricity family —
//     Õ(sqrt(n)·(sqrt(n) + D)) total instead of Õ(sqrt(n)·n);
//   - APSP runs the straight-line sweep: one Evaluation per source,
//     sharded over cloned sessions (Options.Parallel), streaming each
//     Θ(n)-sized distance row to a callback instead of materializing the
//     Θ(n²) table.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
)

// skelCutoff is the vertex count below which the planner keeps the whole
// vertex set as the skeleton (with hop budget 1): the oracle is then
// unconditionally exact and asymptotics don't matter yet.
const skelCutoff = 64

// planSkeleton picks the oracle parameters for an n-vertex graph: the hop
// budget h = Θ(sqrt(n log n)) and a seeded uniform sample of
// s = ceil(3 n ln(n+1) / h) = Θ(sqrt(n log n)) skeleton vertices — enough
// that every h-hop window of every shortest path contains a skeleton
// vertex with high probability (a miss surfaces as an explicit Evaluation
// error, never a wrong distance). Small graphs (or samples that would
// reach n) fall back to S = V, h = 1, where the oracle is exact
// unconditionally.
func planSkeleton(n int, seed int64) (skeleton []int, h int) {
	all := func() []int {
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		return s
	}
	if n <= skelCutoff {
		return all(), 1
	}
	ln := math.Log(float64(n) + 1)
	h = int(math.Ceil(math.Sqrt(6 * float64(n) * ln)))
	if h > n-1 {
		h = n - 1
	}
	s := int(math.Ceil(3 * float64(n) * ln / float64(h)))
	if s >= n {
		return all(), 1
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	skeleton = append([]int(nil), perm[:s]...)
	sort.Ints(skeleton)
	return skeleton, h
}

// skelOracle plans and preprocesses the skeleton oracle for the
// instance's topology.
func (in *instance) skelOracle() (*congest.SkelOracle, error) {
	skeleton, h := planSkeleton(in.topo.N(), in.opts.Seed)
	return congest.NewSkelOracle(in.topo, in.info, skeleton, h, in.opts.Engine...)
}

// skelEcc is the oracle-backed weighted eccentricity Evaluation: f(u0) =
// weighted ecc(u0) in Õ(sqrt(n) + D) rounds. The oracle itself is read-only
// after construction, so cloned contexts (Options.Parallel) apply.
type skelEcc struct{ *congest.SkelEvalSession }

func (s skelEcc) Eval(u0 int) (int, congest.Metrics, error) { return s.SkelEvalSession.Eval(u0, nil) }

// ApspResult reports an all-pairs shortest-paths sweep together with its
// measured CONGEST cost. The Θ(n²) distance table itself is streamed to
// the APSP callback, never held here.
type ApspResult struct {
	// Sources is the number of distance rows emitted (= n).
	Sources int
	// Ecc[v] is the weighted eccentricity of v — max of its row, collected
	// during the sweep.
	Ecc []int
	// Rounds is the total round complexity of the straight-line sweep:
	// InitRounds + Sources * EvalRounds.
	Rounds int
	// InitRounds is the measured preprocessing cost: BFS-tree construction
	// plus the oracle's skeleton relaxations and matrix distribution.
	InitRounds int
	// EvalRounds is the measured cost of one per-source Evaluation
	// (identical for every source: all phase durations are fixed).
	EvalRounds int
}

// APSP computes all-pairs shortest-path distances through the skeleton
// oracle: one oracle Evaluation per source, each Õ(sqrt(n) + D) rounds.
// Rows are delivered in source order through emit(source, row) — row[v] is
// the exact weighted distance d(source, v); the slice is reused between
// calls and only valid during the call (copy to retain). A nil emit skips
// delivery (round accounting only). Options.Parallel shards the sweep
// over cloned sessions on a congest.Pool (0: congest.Contexts(n), one per
// CPU; never more than n); like everywhere in this package, it changes no
// emitted value and not the round accounting. An emit error aborts the sweep and is returned verbatim; an
// Evaluation error aborts it at the smallest failing source. Either way
// every sweep goroutine has returned when APSP does.
func APSP(g *graph.Graph, opts Options, emit func(source int, row []int) error) (ApspResult, error) {
	in, ecc, err := prologue(g, opts, true)
	if in == nil {
		// At most two vertices: d(s, v) is ecc[s] for every v != s.
		for s := 0; emit != nil && s < len(ecc); s++ {
			row := make([]int, len(ecc))
			for v := range row {
				if v != s {
					row[v] = ecc[s]
				}
			}
			if err := emit(s, row); err != nil {
				return ApspResult{}, err
			}
		}
		return ApspResult{Sources: len(ecc), Ecc: ecc}, err
	}
	oracle, err := in.skelOracle()
	if err != nil {
		return ApspResult{}, err
	}
	n := g.N()
	workers := min(opts.Parallel, n)
	if workers == 0 {
		workers = congest.Contexts(n)
	}
	// One evaluation session per clone, reused across blocks (the factory
	// cannot fail).
	pool, _ := congest.NewPool(workers, func(int) (*congest.SkelEvalSession, error) {
		return oracle.NewEvalSession(opts.Engine...), nil
	})

	// The sweep: blocks of one source per clone. The pool fills the block's
	// rows concurrently, job j into rows[j], then the block is emitted in
	// source order. Peak extra memory is O(workers·n), never Θ(n²).
	rows := make([][]int, workers)
	for i := range rows {
		rows[i] = make([]int, n)
	}
	rounds := make([]int, workers)
	base := 0
	evalBlock := func(j int, es *congest.SkelEvalSession) error {
		_, m, err := es.Eval(base+j, rows[j])
		rounds[j] = m.Rounds
		if err != nil {
			return fmt.Errorf("apsp: source %d: %w", base+j, err)
		}
		return nil
	}
	res := ApspResult{Sources: n, Ecc: make([]int, n), InitRounds: in.pre + oracle.InitRounds, EvalRounds: -1}
	for ; base < n; base += workers {
		block := min(workers, n-base)
		// Do reports the smallest job's error: the smallest-source failure,
		// deterministic.
		if err := pool.Do(block, evalBlock); err != nil {
			return ApspResult{}, err
		}
		for j, row := range rows[:block] {
			s := base + j
			res.Ecc[s] = slices.Max(row)
			// All phase durations are fixed, so the per-source cost must be
			// input-independent — the same invariant query.EvalAll asserts.
			if res.EvalRounds == -1 {
				res.EvalRounds = rounds[j]
			} else if rounds[j] != res.EvalRounds {
				return ApspResult{}, fmt.Errorf("apsp: evaluation cost depends on input (source %d: %d rounds, source 0: %d)",
					s, rounds[j], res.EvalRounds)
			}
			if emit != nil {
				if err := emit(s, row); err != nil {
					return ApspResult{}, err
				}
			}
		}
	}
	res.Rounds = res.InitRounds + n*res.EvalRounds
	return res, nil
}
