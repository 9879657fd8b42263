package query_test

// Property tests of the query framework against brute force, on real
// Session-backed oracles: f(v) = vals[v] for random value tables over ~50
// random graphs, each Evaluation one genuine max-convergecast on the
// preprocessing BFS tree. Every query kind is cross-checked against the
// plain loop over vals, and the full Result (values and every measured
// cost) must be bit-identical across worker counts and sequential vs
// batched evaluation.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
	"qcongest/internal/qsim"
	"qcongest/internal/query"
)

// valueOracle is a Session-backed query.Oracle over f(v) = vals[v]: each
// Evaluation injects vals[u0] at u0 (zero elsewhere) and extracts it at the
// leader by one max convergecast, so the round count is tree-determined and
// input-independent. Values must lie in [0, 4n] (the max-kind wire range).
type valueOracle struct {
	topo       *congest.Topology
	info       *congest.PreInfo
	vals       []int
	initRounds int
	engine     []congest.Option
}

func newValueOracle(t *testing.T, g *graph.Graph, vals []int, engine ...congest.Option) *valueOracle {
	t.Helper()
	topo, err := congest.NewTopology(g)
	if err != nil {
		t.Fatalf("NewTopology: %v", err)
	}
	info, pre, err := congest.PreprocessOn(topo, engine...)
	if err != nil {
		t.Fatalf("PreprocessOn: %v", err)
	}
	return &valueOracle{topo: topo, info: info, vals: vals, initRounds: pre.Rounds, engine: engine}
}

func (o *valueOracle) Domain() []int {
	domain := make([]int, o.topo.N())
	for v := range domain {
		domain[v] = v
	}
	return domain
}

func (o *valueOracle) InitRounds() int  { return o.initRounds }
func (o *valueOracle) SetupRounds() int { return o.info.D + 1 }

func (o *valueOracle) NewContext() query.Context {
	return &valueContext{
		cc: congest.NewSession(o.topo, func(v int) *congest.ConvergecastNode {
			return congest.NewConvergecastNode(congest.KindMax, o.info.Parent[v], o.info.Children[v], 0, v, 0)
		}, o.engine...),
		leader: o.info.Leader,
		vals:   o.vals,
		n:      o.topo.N(),
	}
}

type valueContext struct {
	cc     *congest.Session[*congest.ConvergecastNode]
	leader int
	vals   []int
	n      int
}

func (c *valueContext) Eval(x int) (int, int, error) {
	for _, cn := range c.cc.Nodes() {
		cn.Value = 0
	}
	c.cc.Node(x).Value = c.vals[x]
	if err := c.cc.Run(4*c.n + 16); err != nil {
		return 0, 0, err
	}
	return c.cc.Node(c.leader).Agg, c.cc.Metrics().Rounds, nil
}

// propertyCase is one randomized graph of the suite.
type propertyCase struct {
	name string
	g    *graph.Graph
	seed int64
}

// propertySuite builds the ~50-graph randomized suite: random-regular,
// Erdős–Rényi, random trees, and weighted variants (the values under query
// are independent of the weights; the weighted graphs vary the topologies).
func propertySuite(t *testing.T) []propertyCase {
	t.Helper()
	var cases []propertyCase
	add := func(name string, g *graph.Graph, seed int64) {
		cases = append(cases, propertyCase{name: name, g: g, seed: seed})
	}
	for i := 0; i < 10; i++ {
		n := 10 + 2*(i%5)
		g, err := graph.RandomRegular(n, 3, int64(20+i))
		if err != nil {
			t.Fatalf("RandomRegular(%d, 3, %d): %v", n, 20+i, err)
		}
		add(fmt.Sprintf("regular/n=%d/i=%d", n, i), g, int64(1000+i))
	}
	for i := 0; i < 14; i++ {
		n := 10 + i
		p := 0.10 + 0.03*float64(i%4)
		add(fmt.Sprintf("er/n=%d/i=%d", n, i),
			graph.RandomConnected(n, p, int64(120+i)), int64(2000+i))
	}
	for i := 0; i < 13; i++ {
		n := 8 + i
		add(fmt.Sprintf("tree/n=%d/i=%d", n, i),
			graph.RandomTree(n, int64(220+i)), int64(3000+i))
	}
	for i := 0; i < 13; i++ {
		n := 9 + i
		base := graph.RandomConnected(n, 0.15, int64(320+i))
		add(fmt.Sprintf("er-weighted/n=%d/i=%d", n, i),
			graph.WithWeights(base, 1+i%8, int64(420+i)), int64(4000+i))
	}
	return cases
}

// queryConfig is one evaluation configuration the Results must be
// bit-identical across. Every configuration runs under strict wire
// accounting.
type queryConfig struct {
	name     string
	parallel int
}

func queryConfigs() []queryConfig {
	return []queryConfig{{"seq", 1}, {"par4", 4}}
}

// propertyDelta keeps the per-query failure probability far below the suite
// size; with the fixed seeds below every run is deterministic anyway.
const propertyDelta = 1e-6

// caseRun is the full set of query Results of one case under one
// configuration.
type caseRun struct {
	Min, Max, Search, SearchNone, Count query.Result
}

func runCase(t *testing.T, pc propertyCase, vals []int, threshold int, cfg queryConfig) caseRun {
	t.Helper()
	oracle := newValueOracle(t, pc.g, vals, congest.WithStrictAccounting())
	n := len(vals)
	opts := query.Options{Delta: propertyDelta, Seed: pc.seed, Parallel: cfg.parallel}
	marked := func(v int) bool { return v >= threshold }
	var run caseRun
	var err error
	if run.Min, err = query.Minimum(oracle, 1/float64(n), opts); err != nil {
		t.Fatalf("Minimum: %v", err)
	}
	if run.Max, err = query.Maximum(oracle, 1/float64(n), opts); err != nil {
		t.Fatalf("Maximum: %v", err)
	}
	if run.Search, err = query.Search(oracle, marked, opts); err != nil {
		t.Fatalf("Search: %v", err)
	}
	// The impossible predicate: max-kind values never exceed 4n.
	if run.SearchNone, err = query.Search(oracle, func(v int) bool { return v > 4*n }, opts); err != nil {
		t.Fatalf("Search(impossible): %v", err)
	}
	if run.Count, err = query.Count(oracle, marked, opts); err != nil {
		t.Fatalf("Count: %v", err)
	}
	return run
}

// checkCase asserts every query Result against the brute-force loop.
func checkCase(t *testing.T, vals []int, threshold int, run caseRun) {
	t.Helper()
	trueMin, trueMax, markedSet := vals[0], vals[0], map[int]bool{}
	for v, val := range vals {
		trueMin = min(trueMin, val)
		trueMax = max(trueMax, val)
		if val >= threshold {
			markedSet[v] = true
		}
	}
	if !run.Min.Found || run.Min.Value != trueMin || vals[run.Min.X] != trueMin {
		t.Errorf("Minimum: got X=%d Value=%d Found=%v, want value %d", run.Min.X, run.Min.Value, run.Min.Found, trueMin)
	}
	if !run.Max.Found || run.Max.Value != trueMax || vals[run.Max.X] != trueMax {
		t.Errorf("Maximum: got X=%d Value=%d Found=%v, want value %d", run.Max.X, run.Max.Value, run.Max.Found, trueMax)
	}
	if run.Search.Found != (len(markedSet) > 0) {
		t.Errorf("Search: Found=%v, want %v (|marked|=%d)", run.Search.Found, len(markedSet) > 0, len(markedSet))
	}
	if run.Search.Found && !markedSet[run.Search.X] {
		t.Errorf("Search: returned unmarked element %d (value %d)", run.Search.X, run.Search.Value)
	}
	if run.SearchNone.Found {
		t.Errorf("Search(impossible): Found=true at X=%d", run.SearchNone.X)
	}
	if run.Count.Count != len(markedSet) {
		t.Errorf("Count: got %d marked, want %d", run.Count.Count, len(markedSet))
	}
	for _, x := range run.Count.All {
		if !markedSet[x] {
			t.Errorf("Count: listed unmarked element %d", x)
		}
	}
	seen := map[int]bool{}
	for _, x := range run.Count.All {
		if seen[x] {
			t.Errorf("Count: element %d listed twice", x)
		}
		seen[x] = true
	}
}

// TestQueryProperties cross-checks Search/Minimum/Maximum/Count against
// brute force on every suite graph and asserts the full Results are
// bit-identical sequential and batched, under strict wire accounting.
func TestQueryProperties(t *testing.T) {
	configs := queryConfigs()
	for _, pc := range propertySuite(t) {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			n := pc.g.N()
			rng := rand.New(rand.NewSource(pc.seed))
			vals := make([]int, n)
			for v := range vals {
				vals[v] = rng.Intn(4*n + 1)
			}
			// Thresholds sweep empty, sparse and dense marked sets across
			// cases (v >= 0 marks everything; v >= 4n+1 is impossible and
			// covered separately by SearchNone).
			threshold := rng.Intn(4*n + 2)
			base := runCase(t, pc, vals, threshold, configs[0])
			checkCase(t, vals, threshold, base)
			for _, cfg := range configs[1:] {
				got := runCase(t, pc, vals, threshold, cfg)
				if !reflect.DeepEqual(got, base) {
					t.Errorf("%s: Results diverge from %s:\n got %+v\nwant %+v",
						cfg.name, configs[0].name, got, base)
				}
			}
		})
	}
}

// TestQueryEvalAll asserts the exhaustive evaluation path returns the exact
// value table with a uniform per-element cost, identically across
// configurations.
func TestQueryEvalAll(t *testing.T) {
	g := graph.RandomConnected(14, 0.2, 11)
	rng := rand.New(rand.NewSource(77))
	vals := make([]int, g.N())
	for v := range vals {
		vals[v] = rng.Intn(4*g.N() + 1)
	}
	var baseRounds int
	for i, cfg := range queryConfigs() {
		oracle := newValueOracle(t, g, vals, congest.WithStrictAccounting())
		got, evalRounds, err := query.EvalAll(oracle, query.Options{Seed: 5, Parallel: cfg.parallel})
		if err != nil {
			t.Fatalf("%s: EvalAll: %v", cfg.name, err)
		}
		if !reflect.DeepEqual(got, vals) {
			t.Errorf("%s: EvalAll = %v, want %v", cfg.name, got, vals)
		}
		if i == 0 {
			baseRounds = evalRounds
		} else if evalRounds != baseRounds {
			t.Errorf("%s: evalRounds = %d, want %d", cfg.name, evalRounds, baseRounds)
		}
	}
}

// fakeOracle is an in-memory Oracle for the error contracts: f(x) =
// (x*37) mod 101 in a fixed 7 rounds, failing at failAt (-1: never), with
// optional input-dependent round counts (uneven). evals counts the
// Evaluations run on its contexts.
type fakeOracle struct {
	n      int
	failAt int
	uneven bool
	evals  atomic.Int64
}

func (o *fakeOracle) Domain() []int {
	d := make([]int, o.n)
	for i := range d {
		d[i] = i
	}
	return d
}

func (o *fakeOracle) InitRounds() int           { return 3 }
func (o *fakeOracle) SetupRounds() int          { return 2 }
func (o *fakeOracle) NewContext() query.Context { return fakeContext{o} }

type fakeContext struct{ o *fakeOracle }

func (c fakeContext) Eval(x int) (int, int, error) {
	c.o.evals.Add(1)
	if x == c.o.failAt {
		return 0, 0, errors.New("relay window missed")
	}
	r := 7
	if c.o.uneven {
		r += x % 2
	}
	return (x * 37) % 101, r, nil
}

// TestQueryErrorContract pins the error rules: a pooled query wraps the
// smallest failing element as "evaluate <x>", EvalAll returns the bare
// evaluation error, input-dependent round counts are rejected, and an
// empty domain evaluates to an empty table at zero cost.
func TestQueryErrorContract(t *testing.T) {
	failing := &fakeOracle{n: 12, failAt: 7}
	if _, err := query.Maximum(failing, 1.0/12, query.Options{Seed: 1, Parallel: 4}); err == nil {
		t.Error("pooled Maximum on a failing oracle: no error")
	} else if !strings.Contains(err.Error(), "evaluate 7") {
		t.Errorf("pooled Maximum error %q does not name element 7", err)
	}
	if _, _, err := query.EvalAll(failing, query.Options{}); err == nil || err.Error() != "relay window missed" {
		t.Errorf("solo EvalAll error %v, want the bare evaluation error", err)
	}

	uneven := &fakeOracle{n: 10, failAt: -1, uneven: true}
	if _, _, err := query.EvalAll(uneven, query.Options{}); err == nil || !strings.Contains(err.Error(), "evaluation cost depends on input") {
		t.Errorf("uneven oracle: err %v, want the uniformity violation", err)
	}

	if vals, rounds, err := query.EvalAll(&fakeOracle{n: 0, failAt: -1}, query.Options{}); err != nil || len(vals) != 0 || rounds != 0 {
		t.Errorf("empty domain: (%v, %d, %v), want ([], 0, nil)", vals, rounds, err)
	}
}

// quantumQueries runs each amplitude-amplified query kind on an oracle.
// Search marks nothing, so its fruitless pass evaluates every label.
var quantumQueries = []struct {
	name string
	run  func(o query.Oracle, opts query.Options) (query.Result, error)
}{
	{"Maximum", func(o query.Oracle, opts query.Options) (query.Result, error) { return query.Maximum(o, 1.0/16, opts) }},
	{"Minimum", func(o query.Oracle, opts query.Options) (query.Result, error) { return query.Minimum(o, 1.0/16, opts) }},
	{"Search", func(o query.Oracle, opts query.Options) (query.Result, error) {
		return query.Search(o, func(v int) bool { return v > 101 }, opts)
	}},
	{"Count", func(o query.Oracle, opts query.Options) (query.Result, error) {
		return query.Count(o, func(v int) bool { return v%3 == 0 }, opts)
	}},
}

// TestQuantumQueryErrors pins the error rules of the amplified queries on
// the lazy path (one context) and the batched one: input-dependent round
// counts are rejected, an Evaluation error comes back wrapped "evaluate
// <x>" however deep in the amplification it happened, and an empty domain
// is an error.
func TestQuantumQueryErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		oracle *fakeOracle
		want   string
	}{
		{"uneven", &fakeOracle{n: 10, failAt: -1, uneven: true}, "evaluation cost depends on input"},
		{"failing", &fakeOracle{n: 12, failAt: 7}, "evaluate 7: relay window missed"},
		{"empty", &fakeOracle{n: 0, failAt: -1}, qsim.ErrEmptyDomain.Error()},
	} {
		for _, path := range []struct {
			name     string
			parallel int
		}{{"lazy", 1}, {"batched", 4}} {
			for _, q := range quantumQueries {
				t.Run(tc.name+"/"+path.name+"/"+q.name, func(t *testing.T) {
					_, err := q.run(tc.oracle, query.Options{Seed: 2, Parallel: path.parallel})
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Errorf("err %v, want %q", err, tc.want)
					}
				})
			}
		}
	}
}

// TestBatchMatchesSequential pins the batching contract on fakeOracle over
// 64 labels: for every amplified query kind and seed, the batched Result
// (Parallel 4) equals the lazy one (Parallel 1), and the batched run
// evaluates each label exactly once, its memo serving every later lookup.
func TestBatchMatchesSequential(t *testing.T) {
	for _, q := range quantumQueries {
		for seed := int64(1); seed <= 5; seed++ {
			want, err := q.run(&fakeOracle{n: 64, failAt: -1}, query.Options{Delta: 0.1, Seed: seed, Parallel: 1})
			if err != nil {
				t.Fatalf("%s seed %d lazy: %v", q.name, seed, err)
			}
			o := &fakeOracle{n: 64, failAt: -1}
			got, err := q.run(o, query.Options{Delta: 0.1, Seed: seed, Parallel: 4})
			if err != nil {
				t.Fatalf("%s seed %d batched: %v", q.name, seed, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: batched Result %+v, want %+v", q.name, seed, got, want)
			}
			if n := o.evals.Load(); n != 64 {
				t.Errorf("%s seed %d: batched run made %d Evaluations, want 64", q.name, seed, n)
			}
		}
	}
}

// TestQueryAccounting pins the Theorem 7 costs on fakeOracle (T0 = 3,
// Setup = 2, Evaluation = 7 rounds) over 1024 labels, 11 bits each: Setup
// and Evaluation are each applied 2·Iterations + Measurements times, the
// latter at 2·7+1 rounds, so Rounds = 3 + 17·(2·Iterations + Measurements);
// every node holds 5·11 qubits and the leader 11 more per recorded phase,
// ceil(log2(64))+1 = 7 for Maximum/Minimum at eps 1/64 and 1 for Search and
// Count.
func TestQueryAccounting(t *testing.T) {
	o := &fakeOracle{n: 1024, failAt: -1}
	opts := query.Options{Seed: 6, Parallel: 1}
	for _, q := range []struct {
		name   string
		phases int
		run    func() (query.Result, error)
	}{
		{"Maximum", 7, func() (query.Result, error) { return query.Maximum(o, 1.0/64, opts) }},
		{"Minimum", 7, func() (query.Result, error) { return query.Minimum(o, 1.0/64, opts) }},
		{"Search", 1, func() (query.Result, error) { return query.Search(o, func(v int) bool { return v == 50 }, opts) }},
		{"Count", 1, func() (query.Result, error) { return query.Count(o, func(v int) bool { return v == 50 }, opts) }},
	} {
		r, err := q.run()
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if r.InitRounds != 3 || r.SetupRounds != 2 || r.EvalRounds != 7 {
			t.Errorf("%s: Init/Setup/Eval rounds %d/%d/%d, want 3/2/7", q.name, r.InitRounds, r.SetupRounds, r.EvalRounds)
		}
		calls := (r.Rounds - 3) / 17
		if measurements := calls - 2*r.Iterations; (r.Rounds-3)%17 != 0 || measurements < 1 {
			t.Errorf("%s: Rounds %d is not 3 + 17·(2·%d iterations + measurements)", q.name, r.Rounds, r.Iterations)
		}
		if r.NodeQubits != 55 || r.LeaderQubits != 55+11*q.phases {
			t.Errorf("%s: node/leader qubits %d/%d, want 55/%d", q.name, r.NodeQubits, r.LeaderQubits, 55+11*q.phases)
		}
	}
}
