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
// Rows are delivered through emit(source, row) in source order and never
// concurrently, but not necessarily on the caller's goroutine: whichever
// sweep goroutine completes the next source in order emits. row[v] is the
// exact weighted distance d(source, v); the slice is reused between calls
// and only valid during the call (copy to retain). A nil emit skips
// delivery (round accounting only). Options.Parallel shards the sweep over
// cloned sessions on a congest.Pool (0: congest.Contexts(n), one per CPU;
// never more than n); like everywhere in this package, it changes no
// emitted value and not the round accounting.
//
// The sweep fails at the smallest source s whose Evaluation, cost check or
// emit fails, and APSP returns that error (an emit error verbatim): emit
// has then seen exactly the sources below s, plus s itself when its emit
// failed, whatever Options.Parallel is. Sources above a failure are not
// started, and every sweep goroutine has returned when APSP does.
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
	// One evaluation session per clone, reused across sources (the factory
	// cannot fail).
	pool, _ := congest.NewPool(workers, func(int) (*congest.SkelEvalSession, error) {
		return oracle.NewEvalSession(opts.Engine...), nil
	})
	sw := newApspSweep(n, 2*workers, emit)
	// One Do over every source: the pool's clones claim sources in
	// ascending order. The sweep reports its failures itself, so Do's own
	// error (an empty pool) cannot occur.
	_ = pool.Do(n, sw.source)
	if sw.err != nil {
		return ApspResult{}, sw.err
	}
	res := ApspResult{Sources: n, Ecc: sw.ecc, InitRounds: in.pre + oracle.InitRounds, EvalRounds: sw.evalRounds}
	res.Rounds = res.InitRounds + n*res.EvalRounds
	return res, nil
}

// apspSweep is the state the clones of one APSP sweep share: a window of
// reusable row slots, source s writing slot s mod len(rows), and the
// emission point next. Source s starts only once s < next+len(rows), so its
// slot's previous row has been emitted; peak extra memory is
// O(len(rows)·n), never Θ(n²).
type apspSweep struct {
	emit func(source int, row []int) error

	mu     sync.Mutex
	moved  sync.Cond // broadcast when next advances or stop falls
	rows   [][]int
	rounds []int  // the measured rounds of each slot's row
	done   []bool // the slot's row is complete and not yet emitted
	next   int    // the smallest source not yet emitted
	stop   int    // the smallest failing source (n while none has failed)
	err    error  // the error of source stop

	// Written only by the emitting goroutine; read after the sweep.
	ecc        []int
	evalRounds int
}

func newApspSweep(n, window int, emit func(int, []int) error) *apspSweep {
	sw := &apspSweep{emit: emit, rows: make([][]int, window), rounds: make([]int, window),
		done: make([]bool, window), stop: n, ecc: make([]int, n)}
	sw.moved.L = &sw.mu
	for i := range sw.rows {
		sw.rows[i] = make([]int, n)
	}
	return sw
}

// source is the pool job for source s: it waits until s fits the window,
// evaluates s into its slot and, if s is the emission point, emits every
// completed row from s on. It always returns nil; failures go to fail.
func (sw *apspSweep) source(s int, es *congest.SkelEvalSession) error {
	w := len(sw.rows)
	sw.mu.Lock()
	for s >= sw.next+w && s < sw.stop {
		sw.moved.Wait()
	}
	stopped := s >= sw.stop
	sw.mu.Unlock()
	if stopped {
		return nil
	}
	_, m, err := es.Eval(s, sw.rows[s%w])
	sw.mu.Lock()
	if err != nil {
		sw.fail(s, fmt.Errorf("apsp: source %d: %w", s, err))
	} else {
		sw.rounds[s%w], sw.done[s%w] = m.Rounds, true
		if s == sw.next {
			sw.emitCompleted()
		}
	}
	sw.mu.Unlock()
	return nil
}

// emitCompleted emits every completed row from the emission point on (mu
// held, and released around each emit). Only the goroutine that completed
// the emission point calls it, and the point does not move until it
// returns, so emission is serialized.
func (sw *apspSweep) emitCompleted() {
	w := len(sw.rows)
	for sw.next < sw.stop && sw.done[sw.next%w] {
		s, slot := sw.next, sw.next%w
		rounds := sw.rounds[slot]
		sw.mu.Unlock()
		err := sw.deliver(s, sw.rows[slot], rounds)
		sw.mu.Lock()
		if err != nil {
			sw.fail(s, err)
			return
		}
		sw.done[slot] = false
		sw.next++
		sw.moved.Broadcast()
	}
}

// deliver checks and emits source s's row.
func (sw *apspSweep) deliver(s int, row []int, rounds int) error {
	sw.ecc[s] = slices.Max(row)
	// All phase durations are fixed, so the per-source cost must be
	// input-independent — the same invariant query.EvalAll asserts.
	if s == 0 {
		sw.evalRounds = rounds
	} else if rounds != sw.evalRounds {
		return fmt.Errorf("apsp: evaluation cost depends on input (source %d: %d rounds, source 0: %d)",
			s, rounds, sw.evalRounds)
	}
	if sw.emit == nil {
		return nil
	}
	return sw.emit(s, row)
}

// fail records a failure at source s (mu held): the sweep stops at the
// smallest failing source, and clones parked above it wake up to return.
func (sw *apspSweep) fail(s int, err error) {
	if s < sw.stop {
		sw.stop, sw.err = s, err
		sw.moved.Broadcast()
	}
}
