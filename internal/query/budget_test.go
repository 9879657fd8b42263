package query_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
	"qcongest/internal/query"
)

// countingOracle is an in-memory Oracle, f(x) = (x*37) mod 101 in a fixed
// 7 rounds, that records how many contexts a query clones and which labels
// it evaluates. It does not opt in to concurrent contexts; concurrent
// does.
type countingOracle struct {
	n int

	mu       sync.Mutex
	contexts int
	seen     map[int]bool
}

func (o *countingOracle) Domain() []int {
	d := make([]int, o.n)
	for i := range d {
		d[i] = i
	}
	return d
}

func (o *countingOracle) InitRounds() int  { return 3 }
func (o *countingOracle) SetupRounds() int { return 2 }

func (o *countingOracle) NewContext() query.Context {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.contexts++
	return countingContext{o}
}

type countingContext struct{ o *countingOracle }

func (c countingContext) Eval(x int) (int, int, error) {
	c.o.mu.Lock()
	c.o.seen[x] = true
	c.o.mu.Unlock()
	return (x * 37) % 101, 7, nil
}

// concurrent opts a countingOracle in to concurrent contexts.
type concurrent struct{ *countingOracle }

func (concurrent) ConcurrentContexts() {}

// budgetQueries are the five query kinds, each returning its full outcome
// for comparison across Parallel values.
var budgetQueries = []struct {
	name       string
	touchesAll bool // batches under the automatic budget
	run        func(o query.Oracle, opts query.Options) (any, error)
}{
	{"Maximum", true, func(o query.Oracle, opts query.Options) (any, error) { return query.Maximum(o, 1.0/64, opts) }},
	{"Minimum", true, func(o query.Oracle, opts query.Options) (any, error) { return query.Minimum(o, 1.0/64, opts) }},
	{"Count", true, func(o query.Oracle, opts query.Options) (any, error) {
		return query.Count(o, func(v int) bool { return v%3 == 0 }, opts)
	}},
	{"EvalAll", true, func(o query.Oracle, opts query.Options) (any, error) {
		vals, rounds, err := query.EvalAll(o, opts)
		return [2]any{vals, rounds}, err
	}},
	// Every label is marked, so the first measurement ends the search.
	{"Search", false, func(o query.Oracle, opts query.Options) (any, error) {
		return query.Search(o, func(int) bool { return true }, opts)
	}},
}

// TestBudgetBatchesOnlyFullDomainQueries pins which queries batch under
// Parallel 0. Maximum, Minimum, Count and EvalAll evaluate every label even
// on the lazy path, so batching them wastes nothing and they clone
// congest.Contexts(|domain|) contexts. A Search whose first measurement
// hits evaluates only a few labels lazily, so it keeps one context. Oracles
// that do not opt in to concurrent contexts run on one context. The outcome
// equals the sequential one throughout.
func TestBudgetBatchesOnlyFullDomainQueries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 64
	for _, q := range budgetQueries {
		partial := false // some lazy run evaluated fewer than n labels
		for seed := int64(1); seed <= 4; seed++ {
			seq := &countingOracle{n: n, seen: map[int]bool{}}
			want, err := q.run(seq, query.Options{Seed: seed, Parallel: 1})
			if err != nil {
				t.Fatalf("%s seed %d sequential: %v", q.name, seed, err)
			}
			if len(seq.seen) < n {
				partial = true
				if q.touchesAll {
					t.Errorf("%s seed %d: the lazy path evaluated only %d of %d labels", q.name, seed, len(seq.seen), n)
				}
			}
			for _, tc := range []struct {
				name         string
				concurrent   bool
				wantContexts int // when the query batches
			}{
				{"concurrent", true, 4},
				{"not-concurrent", false, 1},
			} {
				counts := &countingOracle{n: n, seen: map[int]bool{}}
				var oracle query.Oracle = counts
				if tc.concurrent {
					oracle = concurrent{counts}
				}
				if !q.touchesAll {
					tc.wantContexts = 1
				}
				got, err := q.run(oracle, query.Options{Seed: seed})
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", q.name, seed, tc.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d %s: automatic outcome %+v, sequential %+v", q.name, seed, tc.name, got, want)
				}
				if counts.contexts != tc.wantContexts {
					t.Errorf("%s seed %d %s: %d contexts, want %d", q.name, seed, tc.name, counts.contexts, tc.wantContexts)
				}
				if tc.wantContexts == 1 && len(counts.seen) != len(seq.seen) {
					t.Errorf("%s seed %d %s: %d labels evaluated, the lazy path %d", q.name, seed, tc.name, len(counts.seen), len(seq.seen))
				}
			}
		}
		if !q.touchesAll && !partial {
			t.Errorf("%s: every lazy run evaluated all %d labels; it could batch", q.name, n)
		}
	}
}

// TestBudgetCapsExplicitParallel pins the cap on an explicit Parallel: a
// query never clones more contexts than its domain has labels, since a
// context without a label to evaluate only costs its sessions. The outcome
// equals the sequential one.
func TestBudgetCapsExplicitParallel(t *testing.T) {
	const n = 3
	for _, q := range budgetQueries {
		want, err := q.run(&countingOracle{n: n, seen: map[int]bool{}}, query.Options{Seed: 5, Parallel: 1})
		if err != nil {
			t.Fatalf("%s sequential: %v", q.name, err)
		}
		counts := &countingOracle{n: n, seen: map[int]bool{}}
		got, err := q.run(counts, query.Options{Seed: 5, Parallel: 64})
		if err != nil {
			t.Fatalf("%s Parallel 64: %v", q.name, err)
		}
		if counts.contexts > n {
			t.Errorf("%s Parallel 64 over %d labels: %d contexts", q.name, n, counts.contexts)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s Parallel 64: outcome %+v, sequential %+v", q.name, got, want)
		}
	}
}

// TestBudgetContextsPerCPU pins the one CPU budget: a full-domain Parallel
// 0 query over an oracle that opts in to concurrent contexts, with more
// labels than GOMAXPROCS, clones exactly GOMAXPROCS contexts, however large
// its domain (a topology of n vertices has n labels); an oracle that does
// not opt in gets one.
func TestBudgetContextsPerCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{64, 5000} {
			counts := &countingOracle{n: n, seen: map[int]bool{}}
			if _, err := query.Maximum(concurrent{counts}, 1.0/64, query.Options{Seed: 1}); err != nil {
				t.Fatal(err)
			}
			if counts.contexts != procs {
				t.Errorf("GOMAXPROCS %d, %d labels: %d contexts, want %d", procs, n, counts.contexts, procs)
			}
			plain := &countingOracle{n: n, seen: map[int]bool{}}
			if _, err := query.Maximum(plain, 1.0/64, query.Options{Seed: 1}); err != nil {
				t.Fatal(err)
			}
			if plain.contexts != 1 {
				t.Errorf("GOMAXPROCS %d, %d labels, not opted in: %d contexts, want 1", procs, n, plain.contexts)
			}
		}
	}
}

// goroutineProbe records runtime.NumGoroutine() from Send: its one vertex
// runs every round until the deadline, and the others never act.
type goroutineProbe struct {
	deadline int
	seen     *[]int
	done     bool
}

func (p *goroutineProbe) Send(env *congest.Env, out *congest.Outbox) {
	if env.ID == 0 {
		*p.seen = append(*p.seen, runtime.NumGoroutine())
	}
}

func (p *goroutineProbe) Receive(env *congest.Env, inbox []congest.Inbound) {
	p.done = env.Round >= p.deadline
}

func (p *goroutineProbe) Done() bool { return p.done }

func (p *goroutineProbe) NextWake(env *congest.Env, round int) int {
	if env.ID != 0 || p.done {
		return congest.NeverWake
	}
	return round + 1
}

// TestRunStartsNoGoroutines pins the other half of the budget: the engine
// runs a network on the goroutine that calls Run, so a context costs one
// CPU. A network of more than 4096 vertices at GOMAXPROCS 4 leaves the
// goroutine count unchanged while it runs.
func TestRunStartsNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, deadline = 5000, 8
	var seen []int
	nw, err := congest.NewNetwork(graph.Path(n), func(v int) congest.Node {
		return &goroutineProbe{deadline: deadline, seen: &seen, done: v != 0}
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if err := nw.Run(2 * deadline); err != nil {
		t.Fatal(err)
	}
	if len(seen) != deadline {
		t.Fatalf("probe ran %d rounds, want %d", len(seen), deadline)
	}
	for r, g := range seen {
		if g != before {
			t.Errorf("round %d: %d goroutines while Run runs, %d before", r+1, g, before)
		}
	}
}
