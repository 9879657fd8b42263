package congest

// This file implements execution sessions: the machinery that lets the
// quantum algorithms run the same CONGEST program family hundreds of times
// (one Evaluation per Grover iteration, Theorem 7) without rebuilding the
// network each time. A Topology caches everything derived from the graph; a
// Session owns a network plus a persistent engine, and each Run restarts its
// programs; a Pool clones session-backed contexts to run independent
// executions concurrently with deterministic result ordering. DESIGN.md
// ("Execution sessions") documents the lifecycle contract and the
// determinism argument.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"qcongest/internal/graph"
)

// Topology is the validated, read-only view of a graph that networks and
// sessions execute on: the connectivity check has passed and the adjacency
// is cached in CSR form, so building any number of networks on the same
// Topology never re-scans the graph. A Topology is immutable after
// construction and safe to share across sessions, engines and Pool clones.
//
// A Topology is its CSR arrays: offsets (int32 row starts, one per vertex
// plus a sentinel) over a single target arena, with an aligned weight
// arena for weighted graphs. The neighbor slices handed to node programs
// (Env.Neighbors, Topology.Neighbors) are cut from the arena by the
// offsets on demand, with no per-vertex table, and the neighbor lookup
// behind HasEdge is a binary search on the packed row — no graph call, no
// lock, which matters because the engine validates every message against
// it. The arena is int-typed (programs address neighbors as int, the
// public facade included); graph.CSR is the compact int32 twin for
// callers that only need an oracle.
type Topology struct {
	n       int
	offsets []int32 // CSR row offsets, len n+1
	arena   []int   // flat neighbor arena, row v = arena[offsets[v]:offsets[v+1]]
	warena  []int   // flat weight arena aligned with arena; nil for unweighted graphs
	maxW    int
	maxDeg  int // longest row: the size of an Outbox's per-sender edge ledger
}

// errNilGraph is what every graph-taking entry point of this package
// returns for a nil graph.
var errNilGraph = errors.New("congest: nil graph")

// errEmptyGraph is what the classical entry points and PreprocessOn return
// for a graph of no vertices.
var errEmptyGraph = errors.New("congest: empty graph")

// NewTopology validates g (it must be connected, like every algorithm in
// this repository assumes) and packs its adjacency (and, for weighted
// graphs, the aligned edge weights) into the CSR arenas. The graph is not
// retained.
func NewTopology(g *graph.Graph) (*Topology, error) {
	if g == nil {
		return nil, errNilGraph
	}
	n := g.N()
	t := &Topology{n: n, offsets: make([]int32, n+1), arena: make([]int, 2*g.M())}
	if g.Weighted() {
		t.warena = make([]int, 2*g.M())
	}
	off := int32(0)
	for v := 0; v < n; v++ {
		t.offsets[v] = off
		// Neighbors sorts the adjacency list on first use.
		row := g.Neighbors(v)
		copy(t.arena[off:], row)
		if t.warena != nil {
			copy(t.warena[off:], g.NeighborWeights(v))
		}
		off += int32(len(row))
	}
	t.offsets[n] = off
	return t.finish(nil)
}

// NewTopologyFromCSR builds a Topology directly from a packed CSR — the
// scale path: a streamed graph.BuildCSRFromStream build plus this
// constructor takes a 10M-vertex grid from nothing to a runnable Topology
// in a handful of allocations, never materializing a *graph.Graph. The CSR
// must describe a simple undirected graph with ascending rows (what
// BuildCSR and BuildCSRFromStream produce): one O(m) pass checks every
// row's range, loops and order, and that each edge appears in both
// directions with equal weights. The int32 offsets array is shared with
// the CSR rather than copied.
func NewTopologyFromCSR(c *graph.CSR) (*Topology, error) {
	if c == nil {
		return nil, errors.New("congest: nil CSR")
	}
	if len(c.Offsets) == 0 || c.Offsets[0] != 0 || int(c.Offsets[len(c.Offsets)-1]) != len(c.Targets) {
		return nil, fmt.Errorf("congest: malformed CSR offsets")
	}
	if c.Weights != nil && len(c.Weights) != len(c.Targets) {
		return nil, fmt.Errorf("congest: malformed CSR: %d weights for %d targets", len(c.Weights), len(c.Targets))
	}
	n := c.N()
	t := &Topology{n: n, offsets: c.Offsets, arena: make([]int, len(c.Targets))}
	if c.Weights != nil {
		t.warena = make([]int, len(c.Weights))
	}
	// Symmetry is checked in the same pass, against rows already checked:
	// an entry w < v of row v must reappear in row w above the diagonal.
	// Those upper entries of row w are exactly the later rows that list w,
	// in ascending order, so one cursor per row, starting at its first
	// upper entry, matches them as the rows go by. Each match consumes a
	// distinct upper entry, so the CSR is symmetric exactly when the lower
	// entries are half of all entries.
	cursor := make([]int32, n)
	lower := 0
	for v := 0; v < n; v++ {
		lo, hi := c.Offsets[v], c.Offsets[v+1]
		if lo > hi || int(hi) > len(c.Targets) {
			return nil, fmt.Errorf("congest: malformed CSR offsets at vertex %d", v)
		}
		cursor[v] = hi
		prev := -1
		for i := lo; i < hi; i++ {
			w := int(c.Targets[i])
			if w < 0 || w >= n {
				return nil, fmt.Errorf("congest: CSR target %d out of range at vertex %d", w, v)
			}
			if w == v {
				return nil, fmt.Errorf("congest: CSR self-loop at vertex %d", v)
			}
			if w <= prev {
				return nil, fmt.Errorf("congest: CSR row %d not strictly ascending", v)
			}
			prev = w
			t.arena[i] = w
			if w > v {
				if cursor[v] == hi {
					cursor[v] = i
				}
				continue
			}
			lower++
			j := cursor[w]
			if j < c.Offsets[w+1] && int(c.Targets[j]) < v {
				return nil, asymmetric(w, int(c.Targets[j]))
			}
			if j == c.Offsets[w+1] || int(c.Targets[j]) != v {
				return nil, asymmetric(v, w)
			}
			if c.Weights != nil && c.Weights[j] != c.Weights[i] {
				return nil, fmt.Errorf("congest: CSR edge {%d, %d} weighs %d in row %d but %d in row %d", w, v, c.Weights[j], w, c.Weights[i], v)
			}
			cursor[w]++
		}
		if c.Weights != nil {
			for i := lo; i < hi; i++ {
				wt := int(c.Weights[i])
				if wt < 1 {
					return nil, fmt.Errorf("congest: CSR edge weight %d < 1 at vertex %d", wt, v)
				}
				t.warena[i] = wt
			}
		}
	}
	if 2*lower != len(c.Targets) {
		for w, j := range cursor {
			if j != c.Offsets[w+1] {
				return nil, asymmetric(w, int(c.Targets[j]))
			}
		}
	}
	return t.finish(cursor)
}

// finish is both constructors' tail, run once the offsets and arenas are
// filled: it derives the longest row and the largest weight, verifies
// connectivity with one BFS over the arena, then rejects a distance bound
// that overflows. queue is n-long int32 scratch the caller is done with,
// or nil to allocate it.
func (t *Topology) finish(queue []int32) (*Topology, error) {
	t.maxW = 1
	for _, w := range t.warena {
		t.maxW = max(t.maxW, w)
	}
	if t.n > 0 {
		if queue == nil {
			queue = make([]int32, t.n)
		}
		// The BFS reads every row exactly when the graph is connected, so
		// it also finds the longest one.
		seen, reached := make([]uint64, (t.n+63)>>6), 1
		seen[0], queue[0] = 1, 0
		for head := 0; head < reached; head++ {
			row := t.Neighbors(int(queue[head]))
			t.maxDeg = max(t.maxDeg, len(row))
			for _, w := range row {
				if seen[w>>6]&(1<<(w&63)) == 0 {
					seen[w>>6] |= 1 << (w & 63)
					queue[reached] = int32(w)
					reached++
				}
			}
		}
		if reached != t.n {
			return nil, graph.ErrDisconnected
		}
	}
	if err := validateDistBound(t.n, t.maxW); err != nil {
		return nil, err
	}
	return t, nil
}

// asymmetric is NewTopologyFromCSR's error for an entry v in row u whose
// reverse entry u is missing from row v.
func asymmetric(u, v int) error {
	return fmt.Errorf("congest: CSR is not symmetric: row %d lists %d, row %d does not list %d", u, v, v, u)
}

// N returns the number of vertices.
func (t *Topology) N() int { return t.n }

// Neighbors returns the sorted adjacency list of v, a view into the arena;
// it must not be modified.
func (t *Topology) Neighbors(v int) []int {
	lo, hi := t.offsets[v], t.offsets[v+1]
	return t.arena[lo:hi:hi]
}

// Degree returns the degree of v.
func (t *Topology) Degree(v int) int { return int(t.offsets[v+1] - t.offsets[v]) }

// HasEdge reports whether {u, v} is an edge (see neighborIndex).
func (t *Topology) HasEdge(u, v int) bool { return t.neighborIndex(u, v) >= 0 }

// neighborIndex returns v's position in u's neighbor row, or -1 when {u, v}
// is not an edge (or u is not a vertex): a binary search on the packed CSR
// row of u. HasEdge answers from it; the engine's destination checks
// search the sender's row, which Outbox.begin keeps, directly.
func (t *Topology) neighborIndex(u, v int) int {
	if u < 0 || u >= t.n {
		return -1
	}
	return neighborIndex(t.arena[t.offsets[u]:t.offsets[u+1]], v)
}

// neighborIndex locates id in the ascending list of non-negative neighbor
// ids, or returns -1 when it is absent. The binary search is branchless:
// each halving is one compare and one conditional add, base += half when
// neighbors[base+half] <= id, so a destination check costs no mispredicted
// branch however the ids fall. The compiler keeps an `if` here as a
// branch, so the compare is the sign of id - neighbors[base+half], as a
// mask on half. That difference overflows only for a negative id, which
// no row holds, so the final compare still answers -1. base ends at the
// last entry <= id (or at 0 when every entry is above it).
func neighborIndex(neighbors []int, id int) int {
	n := len(neighbors)
	if n == 0 {
		return -1
	}
	base := 0
	for n > 1 {
		half := n >> 1
		base += half &^ ((id - neighbors[base+half]) >> 63)
		n -= half
	}
	if neighbors[base] == id {
		return base
	}
	return -1
}

// Weighted reports whether the underlying graph carries edge weights.
func (t *Topology) Weighted() bool { return t.warena != nil }

// NeighborWeights returns the edge weights aligned with Neighbors(v), or nil
// for an unweighted topology (all weights 1); it must not be modified.
func (t *Topology) NeighborWeights(v int) []int {
	if t.warena == nil {
		return nil
	}
	lo, hi := t.offsets[v], t.offsets[v+1]
	return t.warena[lo:hi:hi]
}

// MaxWeight returns the largest edge weight (1 when unweighted).
func (t *Topology) MaxWeight() int { return t.maxW }

// DistBound returns the largest possible finite weighted distance,
// (n-1) * MaxWeight: every weighted wire field that carries a distance is
// sized to cover [0, DistBound]. The product cannot overflow: topology
// construction rejects (n, maxW) combinations where it would (see
// validateDistBound).
func (t *Topology) DistBound() int {
	if t.n <= 1 {
		return 0
	}
	return (t.n - 1) * t.maxW
}

// validateDistBound rejects (n, maxW) combinations whose distance bound
// (n-1)*maxW does not fit an int. Without this check the product silently
// wraps and every weighted wire field is sized from the wrapped value —
// encoders would then reject legitimate distances (or, worse, a negative
// bound would corrupt the field-width arithmetic). The cap leaves headroom
// for the Bound+2 field range the skeleton relay encodes (the "no value"
// sentinel), so every bound-derived width computation stays in range.
func validateDistBound(n, maxW int) error {
	if n <= 1 || maxW <= 1 {
		return nil
	}
	if maxW > (math.MaxInt-2)/(n-1) {
		return fmt.Errorf("congest: distance bound (n-1)*maxW overflows int (n=%d, max weight %d)", n, maxW)
	}
	return nil
}

// Resettable is the lifecycle contract a node program implements to be
// reusable across executions: ResetNode must restore the program to exactly
// the state its constructor produced, so that every Session.Run (which calls
// it first) is bit-for-bit identical to a run on freshly constructed
// programs. The inputs that change between runs (a new walk start, a new
// tau' assignment) are exported fields of the program: the caller writes
// them through Session.Node or Session.Nodes before Run, and ResetNode
// rebuilds the rest of the state from them. An input that a run also
// overwrites as an output (CutMarkNode.Marked, BroadcastNode.Value) is
// rewritten before every Run.
type Resettable interface {
	Node
	ResetNode()
}

// Session owns one network of T programs together with a persistent
// execution engine. Where NewNetwork + Run build topology tables, node
// programs, arenas and buffers per execution, a Session builds them once
// and recycles all of them: each Run restores the node programs, zeroes the
// metrics and executes on the retained engine. Every Run is bit-for-bit
// identical — outputs, Metrics, observer wire traces, error strings — to
// building a fresh network and running it; the session-reuse determinism
// tests assert exactly that.
//
// A Session is not safe for concurrent use; clone it (see Pool) to run
// independent executions in parallel.
type Session[T Resettable] struct {
	nw       *Network
	nodes    []T
	makeNode func(v int) T
	opts     []Option
	e        *engine
}

// NewSession builds a session for the program family make over topo. The
// node programs are constructed once, here; every Run restarts them.
func NewSession[T Resettable](topo *Topology, make func(v int) T, opts ...Option) *Session[T] {
	nw, nodes := networkOf(topo, make, opts...)
	return &Session[T]{nw: nw, nodes: nodes, makeNode: make, opts: opts}
}

// networkOf builds the network over topo whose vertex v runs mk(v), and
// returns it with the programs typed.
func networkOf[T Node](topo *Topology, mk func(v int) T, opts ...Option) (*Network, []T) {
	nodes := make([]T, topo.n)
	for v := range nodes {
		nodes[v] = mk(v)
	}
	return NewNetworkOn(topo, func(v int) Node { return nodes[v] }, opts...), nodes
}

// runOnce builds a one-shot network of the programs mk(v) over topo and
// runs it for at most maxRounds rounds. It returns the programs, to read
// their outputs, with the run's Metrics; a run error is prefixed with what.
func runOnce[T Node](topo *Topology, mk func(v int) T, maxRounds int, what string, opts ...Option) ([]T, Metrics, error) {
	nw, nodes := networkOf(topo, mk, opts...)
	if err := nw.Run(maxRounds); err != nil {
		return nil, nw.Metrics(), fmt.Errorf("%s: %w", what, err)
	}
	return nodes, nw.Metrics(), nil
}

// Run executes one full run: every node program is restored to its
// constructed state from its input fields (see Resettable), the metrics are
// zeroed, and the run executes on the persistent engine (created on first
// use).
func (s *Session[T]) Run(maxRounds int) error {
	for _, nd := range s.nodes {
		nd.ResetNode()
	}
	s.nw.metrics = Metrics{}
	if s.e == nil {
		s.e = newEngine(s.nw)
	}
	return s.e.execute(maxRounds)
}

// Node returns the program running at vertex v (for writing the next run's
// inputs before Run, and for reading outputs after a run).
func (s *Session[T]) Node(v int) T { return s.nodes[v] }

// Nodes returns the programs indexed by vertex; the slice must not be
// modified.
func (s *Session[T]) Nodes() []T { return s.nodes }

// Metrics returns the metrics of the last Run.
func (s *Session[T]) Metrics() Metrics { return s.nw.metrics }

// Topology returns the shared topology the session executes on.
func (s *Session[T]) Topology() *Topology { return s.nw.topo }

// Clone builds an independent session of the same program family: same
// topology (shared, never copied), same options, freshly constructed node
// programs and a private engine. Clones may run concurrently with each
// other and with the original.
//
// A session with a WithObserver option refuses to clone: the options are
// reused as given, so the clones would share one callback and interleave
// their wire traces nondeterministically. Observe a solo Session.
func (s *Session[T]) Clone() (*Session[T], error) {
	if s.nw.observer != nil {
		return nil, fmt.Errorf("congest: Clone of a session with an observer (traces would interleave; observe a solo Session)")
	}
	return NewSession(s.nw.topo, s.makeNode, s.opts...), nil
}

// Pool runs independent executions concurrently on a fixed set of cloned
// execution contexts (typically Session-backed evaluators). Jobs are
// distributed dynamically over the clones, but results are keyed by job
// index and errors are reported for the smallest failing index, so the
// outcome is deterministic regardless of scheduling — the property the
// parallel experiment sweeps and the batched quantum evaluations rely on.
type Pool[C any] struct {
	clones []C
}

// NewPool builds a pool of `workers` contexts, each produced by factory
// (factory receives the clone index). On a factory error it returns the
// pool of the contexts built so far with the error.
func NewPool[C any](workers int, factory func(i int) (C, error)) (*Pool[C], error) {
	if workers < 1 {
		workers = 1
	}
	p := &Pool[C]{clones: make([]C, 0, workers)}
	for i := 0; i < workers; i++ {
		c, err := factory(i)
		if err != nil {
			return p, err
		}
		p.clones = append(p.clones, c)
	}
	return p, nil
}

// Size returns the number of clones.
func (p *Pool[C]) Size() int { return len(p.clones) }

// Get returns clone i (for using one of the contexts outside Do, e.g. as
// the sequential evaluator; never concurrently with a running Do).
func (p *Pool[C]) Get(i int) C { return p.clones[i] }

// Do runs fn(job, clone) for every job in [0, jobs). Each clone executes at
// most one job at a time, so fn may freely mutate its clone; distinct jobs
// must write their results to distinct caller-owned slots (e.g. results[job]).
// All jobs are attempted — for every pool size, including one clone — and
// the returned error is the one reported for the smallest job index. The
// first min(clones, jobs) clones take part: clone 0 on the caller's
// goroutine, each other one on a goroutine of its own that has returned
// when Do returns.
func (p *Pool[C]) Do(jobs int, fn func(job int, clone C) error) error {
	if len(p.clones) == 0 {
		return fmt.Errorf("congest: Do on an empty pool")
	}
	if jobs <= 0 {
		return nil
	}
	r := &poolRun[C]{fn: fn, jobs: jobs, failed: jobs}
	for _, c := range p.clones[1:min(len(p.clones), jobs)] {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.work(c)
		}()
	}
	r.work(p.clones[0])
	r.wg.Wait()
	return r.err
}

// poolRun is the state one Do call shares between its clones: the next job
// to claim, and the smallest failing job with its error.
type poolRun[C any] struct {
	fn     func(job int, clone C) error
	jobs   int
	next   atomic.Int64
	wg     sync.WaitGroup
	mu     sync.Mutex
	failed int
	err    error
}

// work runs jobs on clone c until none is left.
func (r *poolRun[C]) work(c C) {
	for {
		j := int(r.next.Add(1)) - 1
		if j >= r.jobs {
			return
		}
		if err := r.fn(j, c); err != nil {
			r.mu.Lock()
			if j < r.failed {
				r.failed, r.err = j, err
			}
			r.mu.Unlock()
		}
	}
}

// Contexts is the one CPU budget: the number of cloned contexts to run
// `jobs` independent executions on, min(GOMAXPROCS, jobs) and at least 1.
// Each context's engine runs on one goroutine, so the contexts use every
// CPU the jobs can fill and never more.
func Contexts(jobs int) int {
	return max(1, min(runtime.GOMAXPROCS(0), jobs))
}

// ForEach runs fn(job) for every job in [0, jobs) on up to `workers`
// goroutines, with the Pool's determinism contract: all jobs attempted for
// every worker count, smallest-index error returned.
func ForEach(workers, jobs int, fn func(job int) error) error {
	p, _ := NewPool(workers, func(int) (struct{}, error) { return struct{}{}, nil })
	return p.Do(jobs, func(job int, _ struct{}) error { return fn(job) })
}
