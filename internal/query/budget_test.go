package query_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"qcongest/internal/query"
)

// countingOracle is an in-memory Oracle, f(x) = (x*37) mod 101 in a fixed
// 7 rounds, that records how many contexts a query clones and which labels
// it evaluates. workers > 0 makes it an EngineBound oracle whose contexts
// each claim that many engine workers.
type countingOracle struct {
	n       int
	workers int

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

func (c countingContext) Close() {}

// engineBound adds the EngineBound method to a countingOracle.
type engineBound struct{ *countingOracle }

func (o engineBound) EngineWorkers() int { return o.workers }

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
// congest.Contexts(EngineWorkers, |domain|) contexts. A Search whose first
// measurement hits evaluates only a few labels lazily, so it keeps one
// context. Oracles that do not report EngineWorkers, and oracles whose
// engine already takes the budget, run on one context. The outcome equals
// the sequential one throughout.
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
				workers      int // 0: the oracle is not EngineBound
				wantContexts int // when the query batches
			}{
				{"engine-bound/1-worker", 1, 4},
				{"engine-bound/4-workers", 4, 1},
				{"unbounded", 0, 1},
			} {
				counts := &countingOracle{n: n, workers: tc.workers, seen: map[int]bool{}}
				var oracle query.Oracle = counts
				if tc.workers > 0 {
					oracle = engineBound{counts}
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
