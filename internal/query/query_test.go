package query_test

// Property tests of the query framework against brute force, on real
// Session-backed oracles: f(v) = vals[v] for random value tables over ~50
// random graphs, each Evaluation one genuine max-convergecast on the
// preprocessing BFS tree. Every query kind is cross-checked against the
// plain loop over vals, and the full Result (values and every measured
// cost) must be bit-identical across worker counts, sequential vs batched
// evaluation, and both schedulers.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
	"qcongest/internal/query"
)

// valueOracle is a Session-backed query.Oracle over f(v) = vals[v]: each
// Evaluation injects vals[u0] at u0 (zero elsewhere) and extracts it at the
// leader by one max convergecast, so the round count is tree-determined and
// input-independent. Values must lie in [0, 4n] (the msgMax wire range).
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
		cc: congest.NewSession(o.topo, func(v int) congest.Node {
			return congest.NewConvergecastMaxNode(o.info.Parent[v], o.info.Children[v], 0, v)
		}, o.engine...),
		leader: o.info.Leader,
		vals:   o.vals,
		buf:    make([]int, o.topo.N()),
	}
}

type valueContext struct {
	cc     *congest.Session
	leader int
	vals   []int
	buf    []int
}

func (c *valueContext) Eval(x int) (int, int, error) {
	for v := range c.buf {
		c.buf[v] = 0
	}
	c.buf[x] = c.vals[x]
	if err := c.cc.Reset(congest.MaxInputs{Values: c.buf}); err != nil {
		return 0, 0, err
	}
	if err := c.cc.Run(4*len(c.buf) + 16); err != nil {
		return 0, 0, err
	}
	return c.cc.Node(c.leader).(*congest.ConvergecastMaxNode).Max, c.cc.Metrics().Rounds, nil
}

func (c *valueContext) Close() { c.cc.Close() }

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

// queryConfig is one engine/evaluation configuration the Results must be
// bit-identical across.
type queryConfig struct {
	name     string
	parallel int
	engine   []congest.Option
}

func queryConfigs() []queryConfig {
	return []queryConfig{
		{"w1-seq-frontier", 1, []congest.Option{
			congest.WithWorkers(1), congest.WithScheduler(congest.SchedulerFrontier), congest.WithStrictAccounting()}},
		{"w2-seq-dense", 1, []congest.Option{
			congest.WithWorkers(2), congest.WithScheduler(congest.SchedulerDense), congest.WithStrictAccounting()}},
		{"w8-par4-frontier", 4, []congest.Option{
			congest.WithWorkers(8), congest.WithScheduler(congest.SchedulerFrontier), congest.WithStrictAccounting()}},
		{"w1-par4-dense", 4, []congest.Option{
			congest.WithWorkers(1), congest.WithScheduler(congest.SchedulerDense), congest.WithStrictAccounting()}},
	}
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
	oracle := newValueOracle(t, pc.g, vals, cfg.engine...)
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
	// The impossible predicate: msgMax values never exceed 4n.
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
// bit-identical across workers {1,2,8} x sequential/batched x
// Dense/Frontier, under strict wire accounting.
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
		oracle := newValueOracle(t, g, vals, cfg.engine...)
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
// optional input-dependent round counts (uneven).
type fakeOracle struct {
	n      int
	failAt int
	uneven bool
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
	if x == c.o.failAt {
		return 0, 0, errors.New("relay window missed")
	}
	r := 7
	if c.o.uneven {
		r += x % 2
	}
	return (x * 37) % 101, r, nil
}

func (c fakeContext) Close() {}

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
