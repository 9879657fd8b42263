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
	"sort"
	"sync"

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

// buildSkelOracle plans and preprocesses the skeleton oracle for one
// topology.
func buildSkelOracle(topo *congest.Topology, info *congest.PreInfo, opts Options) (*congest.SkelOracle, error) {
	skeleton, h := planSkeleton(topo.N(), opts.Seed)
	return congest.NewSkelOracle(topo, info, skeleton, h, opts.Engine...)
}

// skelEccFamily is the oracle-backed weighted eccentricity Evaluation
// family: f(u0) = weighted ecc(u0) in Õ(sqrt(n) + D) rounds per
// Evaluation. The oracle itself is read-only after construction, so
// cloned contexts (Options.Parallel) apply.
func skelEccFamily(o *congest.SkelOracle, opts Options) evalFamily {
	return func() *evalContext {
		es := o.NewEvalSession(opts.Engine...)
		return &evalContext{
			eval: func(u0 int) (int, int, error) {
				value, m, err := es.Eval(u0, nil)
				if err != nil {
					return 0, 0, err
				}
				return value, m.Rounds, nil
			},
			close: es.Close,
		}
	}
}

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
// over cloned sessions (0: as many as congest.Contexts grants beside the
// engine's workers); like everywhere in this package, it changes no
// emitted value and not the round accounting. An emit error aborts the
// sweep and is returned verbatim.
func APSP(g *graph.Graph, opts Options, emit func(source int, row []int) error) (ApspResult, error) {
	if err := opts.validate(); err != nil {
		return ApspResult{}, err
	}
	n := g.N()
	if n <= 2 {
		return apspTrivial(g, emit)
	}
	topo, err := congest.NewTopology(g)
	if err != nil {
		return ApspResult{}, err
	}
	info, pre, err := congest.PreprocessOn(topo, opts.Engine...)
	if err != nil {
		return ApspResult{}, err
	}
	oracle, err := buildSkelOracle(topo, info, opts)
	if err != nil {
		return ApspResult{}, err
	}

	workers := opts.Parallel
	if workers == 0 {
		workers = congest.Contexts(topo.EngineWorkers(opts.Engine...), n)
	}

	// One evaluation session per worker, reused across blocks.
	sessions := make([]*congest.SkelEvalSession, workers)
	for w := range sessions {
		sessions[w] = oracle.NewEvalSession(opts.Engine...)
		defer sessions[w].Close()
	}

	// The sweep: blocks of one source per worker — the workers fill the
	// block's rows concurrently, then the block is emitted in source order.
	// Peak extra memory is O(workers·n), never Θ(n²).
	rows := make([][]int, workers)
	for i := range rows {
		rows[i] = make([]int, n)
	}
	rounds := make([]int, workers)
	errs := make([]error, workers)
	res := ApspResult{Sources: n, Ecc: make([]int, n), InitRounds: pre.Rounds + oracle.InitRounds, EvalRounds: -1}
	for base := 0; base < n; base += workers {
		upper := min(n, base+workers)
		var wg sync.WaitGroup
		for s := base; s < upper; s++ {
			wg.Add(1)
			go func(w, s int) {
				defer wg.Done()
				_, m, err := sessions[w].Eval(s, rows[w])
				if err != nil {
					err = fmt.Errorf("apsp: source %d: %w", s, err)
				}
				rounds[w], errs[w] = m.Rounds, err
			}(s-base, s)
		}
		wg.Wait()
		// Workers hold ascending sources, so the first non-nil error is the
		// smallest-source failure — deterministic.
		for _, err := range errs[:upper-base] {
			if err != nil {
				return ApspResult{}, err
			}
		}
		for s := base; s < upper; s++ {
			row := rows[s-base]
			ecc := 0
			for _, d := range row {
				if d > ecc {
					ecc = d
				}
			}
			res.Ecc[s] = ecc
			// All phase durations are fixed, so the per-source cost must be
			// input-independent — the same invariant query.EvalAll asserts.
			if res.EvalRounds == -1 {
				res.EvalRounds = rounds[s-base]
			} else if rounds[s-base] != res.EvalRounds {
				return ApspResult{}, fmt.Errorf("apsp: evaluation cost depends on input (source %d: %d rounds, source 0: %d)",
					s, rounds[s-base], res.EvalRounds)
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

// apspTrivial handles n <= 2 without any quantum phase, mirroring
// trivialWeighted.
func apspTrivial(g *graph.Graph, emit func(int, []int) error) (ApspResult, error) {
	switch g.N() {
	case 0:
		return ApspResult{Ecc: []int{}}, nil
	case 1:
		if emit != nil {
			if err := emit(0, []int{0}); err != nil {
				return ApspResult{}, err
			}
		}
		return ApspResult{Sources: 1, Ecc: []int{0}}, nil
	default:
		w := g.Weight(0, 1)
		if w == 0 {
			return ApspResult{}, graph.ErrDisconnected
		}
		if emit != nil {
			for s, row := range [][]int{{0, w}, {w, 0}} {
				if err := emit(s, row); err != nil {
					return ApspResult{}, err
				}
			}
		}
		return ApspResult{Sources: 2, Ecc: []int{w, w}}, nil
	}
}
