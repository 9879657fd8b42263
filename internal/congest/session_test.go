package congest

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"qcongest/internal/graph"
)

// recordObs renders every observed delivery (and run boundary) into events,
// encoded bits included, so trace comparisons are bit-for-bit.
func recordObs(events *[]string) Observer {
	return func(round, from, to, bits int, wire WireView) {
		var enc strings.Builder
		for i := 0; i < wire.Len(); i++ {
			if wire.Bit(i) {
				enc.WriteByte('1')
			} else {
				enc.WriteByte('0')
			}
		}
		*events = append(*events, fmt.Sprintf("%d:%d->%d:%d:%s", round, from, to, bits, enc.String()))
	}
}

// figure2Result captures one full Evaluation: its value, the per-phase
// metrics, and the complete observer wire trace.
type figure2Result struct {
	Value      int
	Walk, Rest Metrics
	Trace      []string
}

// runRef builds a network of freshly constructed programs mk(v) over topo
// and executes it with RunReference, the oracle executor, failing the test
// on an error. It returns the programs, to read their outputs, and the
// run's Metrics: the independent reference the sessions are held to.
func runRef[T Node](t *testing.T, topo *Topology, mk func(v int) T, maxRounds int, opts ...Option) ([]T, Metrics) {
	t.Helper()
	nodes := make([]T, topo.N())
	nw := NewNetworkOn(topo, func(v int) Node {
		nodes[v] = mk(v)
		return nodes[v]
	}, opts...)
	if err := nw.RunReference(maxRounds); err != nil {
		t.Fatal(err)
	}
	return nodes, nw.Metrics()
}

// refClassicalPhases runs the Figure 2 walk from start, the wave process
// and the max convergecast on RunReference networks of fresh programs, and
// returns the maximum at the leader with each phase's Metrics.
func refClassicalPhases(t *testing.T, topo *Topology, info *PreInfo, start, steps, duration int, opts ...Option) (int, [3]Metrics) {
	t.Helper()
	var m [3]Metrics
	walk, m0 := runRef(t, topo, func(v int) *TokenWalkNode {
		return NewTokenWalkNode(info.Parent[v], info.Children[v], info.Leader, start, steps)
	}, steps+4, opts...)
	wave, m1 := runRef(t, topo, func(v int) *WaveNode {
		return NewWaveNode(walk[v].Tau >= 0, walk[v].Tau, duration)
	}, duration+4, opts...)
	for _, wn := range wave {
		if wn.Violation != nil {
			t.Fatal(wn.Violation)
		}
	}
	cc, m2 := runRef(t, topo, func(v int) *ConvergecastNode {
		return NewConvergecastNode(KindMax, info.Parent[v], info.Children[v], wave[v].DV, v, 0)
	}, 4*topo.N()+16, opts...)
	m[0], m[1], m[2] = m0, m1, m2
	return cc[info.Leader].Agg, m
}

// freshFigure2 runs one Evaluation the reference way: freshly constructed
// programs on a new network per phase, executed by RunReference.
func freshFigure2(t *testing.T, g *graph.Graph, info *PreInfo, u0 int, opts ...Option) figure2Result {
	t.Helper()
	var r figure2Result
	o := append([]Option{WithObserver(recordObs(&r.Trace))}, opts...)
	val, m := refClassicalPhases(t, mustTopology(t, g), info, u0, 2*info.D, 6*info.D+2, o...)
	m[1].Add(m[2])
	r.Value, r.Walk, r.Rest = val, m[0], m[1]
	return r
}

// The tentpole contract: a session Run is bit-for-bit identical to a
// freshly built network — values, Metrics and encoded observer traces —
// on the first execution and on every re-run.
func TestSessionReuseBitIdentical(t *testing.T) {
	for _, seed := range []int64{3, 9} {
		g := graph.RandomConnected(130, 0.045, seed)
		info, _, err := Preprocess(g)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := NewTopology(g)
		if err != nil {
			t.Fatal(err)
		}
		// Includes a repeated input: re-evaluating an input already seen
		// must also be identical.
		u0s := []int{0, 7, 63, 129, 7}
		var trace []string
		o := []Option{WithObserver(recordObs(&trace)), WithStrictAccounting()}
		walk := NewWalkSession(topo, info, info.Children, 2*info.D, o...)
		ecc := NewEccSession(topo, info, 6*info.D+2, o...)
		for pass := 0; pass < 2; pass++ { // pass 1 re-runs warm sessions
			for _, u0 := range u0s {
				want := freshFigure2(t, g, info, u0, WithStrictAccounting())
				trace = trace[:0]
				tau, mW, err := walk.Eval(u0)
				if err != nil {
					t.Fatal(err)
				}
				val, mR, err := ecc.Eval(tau)
				if err != nil {
					t.Fatal(err)
				}
				if val != want.Value || mW != want.Walk || mR != want.Rest {
					t.Fatalf("seed %d pass %d u0 %d: session (%d, %+v, %+v) != fresh (%d, %+v, %+v)",
						seed, pass, u0, val, mW, mR, want.Value, want.Walk, want.Rest)
				}
				if !reflect.DeepEqual(trace, want.Trace) {
					t.Fatalf("seed %d pass %d u0 %d: observer wire trace differs (%d vs %d events)",
						seed, pass, u0, len(trace), len(want.Trace))
				}
			}
		}
	}
}

// PrepareApproxOn runs its counting probes on reused sessions; its output
// and metrics must be identical from one call to the next.
func TestPrepareApproxSessionDeterministic(t *testing.T) {
	topo := mustTopology(t, graph.RandomConnected(90, 0.06, 5))
	wantPrep, wantM, err := PrepareApproxOn(topo, 9, 11)
	if err != nil {
		t.Fatal(err)
	}
	prep, m, err := PrepareApproxOn(topo, 9, 11)
	if err != nil {
		t.Fatal(err)
	}
	if m != wantM {
		t.Errorf("metrics %+v, want %+v", m, wantM)
	}
	if !reflect.DeepEqual(prep, wantPrep) {
		t.Errorf("preparation outputs differ")
	}
}

// Every Evaluation session reports its failures as errors: a run that
// breaks the bandwidth fails its Eval.
func TestEvalSessionErrors(t *testing.T) {
	g := graph.RandomConnected(40, 0.1, 3)
	info, _, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	topo := mustTopology(t, g)
	flags, _, err := TriangleFlagsOn(topo)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewSkelOracle(topo, info, []int{0, 9, 18, 27}, 8)
	if err != nil {
		t.Fatal(err)
	}
	walk := NewWalkSession(topo, info, info.Children, 2*info.D)
	tau, _, err := walk.Eval(0)
	if err != nil {
		t.Fatal(err)
	}
	starved := WithBandwidth(1)
	walk = NewWalkSession(topo, info, info.Children, 2*info.D, starved)
	ecc := NewEccSession(topo, info, 6*info.D+2, starved)
	wecc := NewWeightedEccSession(topo, info, starved)
	cut := NewCutSession(topo, info, starved)
	tri := NewTriangleSession(topo, info, flags, starved)
	skel := oracle.NewEvalSession(starved)
	row := make([]int, g.N())
	for _, e := range []struct {
		name string
		eval func() error
	}{
		{"walk", func() error { _, _, err := walk.Eval(0); return err }},
		{"ecc", func() error { _, _, err := ecc.Eval(tau); return err }},
		{"weighted ecc", func() error { _, _, err := wecc.Eval(0); return err }},
		{"cut", func() error { _, _, err := cut.Eval(0); return err }},
		{"triangle", func() error { _, _, err := tri.Eval(0); return err }},
		{"skeleton", func() error { _, _, err := skel.Eval(0, row); return err }},
	} {
		if err := e.eval(); err == nil || !strings.Contains(err.Error(), "exceeds bandwidth") {
			t.Errorf("%s at 1 bit of bandwidth: err = %v, want a bandwidth error", e.name, err)
		}
	}
}

// Re-running a warm session must be allocation-free: the whole point of
// the session layer is that an Evaluation re-run touches only recycled
// state, and the next run's inputs are written straight into the typed
// programs. Every Evaluation session runs on a random regular graph; the
// Figure 2 pair also runs on a path, where its walk and waves are longest.
func TestEvalSteadyStateAllocs(t *testing.T) {
	rr, err := graph.RandomRegular(256, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{rr, graph.Path(256)} {
		info, _, err := Preprocess(g)
		if err != nil {
			t.Fatal(err)
		}
		topo := mustTopology(t, g)
		flags, _, err := TriangleFlagsOn(topo)
		if err != nil {
			t.Fatal(err)
		}
		var skeleton []int
		for v := 0; v < g.N(); v += 8 {
			skeleton = append(skeleton, v)
		}
		oracle, err := NewSkelOracle(topo, info, skeleton, 16)
		if err != nil {
			t.Fatal(err)
		}
		walk := NewWalkSession(topo, info, info.Children, 2*info.D)
		ecc := NewEccSession(topo, info, 6*info.D+2)
		wecc := NewWeightedEccSession(topo, info)
		cut := NewCutSession(topo, info)
		tri := NewTriangleSession(topo, info, flags)
		skel := oracle.NewEvalSession()
		evals := []struct {
			name string
			eval func(u0 int) error
		}{
			{"walk+ecc", func(u0 int) error {
				tau, _, err := walk.Eval(u0)
				if err == nil {
					_, _, err = ecc.Eval(tau)
				}
				return err
			}},
			{"weighted ecc", func(u0 int) error { _, _, err := wecc.Eval(u0); return err }},
			{"cut", func(u0 int) error { _, _, err := cut.Eval(u0); return err }},
			{"triangle", func(u0 int) error { _, _, err := tri.Eval(u0); return err }},
			{"skeleton", func(u0 int) error { _, _, err := skel.Eval(u0, nil); return err }},
		}
		if g != rr {
			evals = evals[:1]
		}
		for _, e := range evals {
			// Warm up: engines built, buffers grown. The runtime also
			// fills its per-call-site type-assertion caches at random
			// moments early in a process; the random-regular runs come
			// first and warm them, and AllocsPerRun rounds the average
			// down, so those one-off allocations never read as a
			// per-Evaluation cost.
			for u0 := 0; u0 < 5; u0++ {
				if err := e.eval(u0); err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
			}
			var err error
			perEval := testing.AllocsPerRun(10, func() { err = e.eval(200) })
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			if perEval != 0 {
				t.Errorf("n=%d %s: %.1f allocs per re-run Evaluation, want 0", g.N(), e.name, perEval)
			}
		}
	}
}

// Pool.Do must attempt every job, deliver results keyed by job index, and
// report the smallest-index error, independent of scheduling.
func TestPoolDeterministic(t *testing.T) {
	type ctx struct{ id int }
	pool, err := NewPool(4, func(i int) (*ctx, error) { return &ctx{id: i}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 4 {
		t.Fatalf("Size = %d", pool.Size())
	}
	const jobs = 200
	results := make([]int, jobs)
	if err := pool.Do(jobs, func(j int, c *ctx) error {
		results[j] = j * j
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for j, r := range results {
		if r != j*j {
			t.Fatalf("job %d: result %d", j, r)
		}
	}
	// Errors: jobs 150 and 17 fail; the reported error must be job 17's.
	err = pool.Do(jobs, func(j int, c *ctx) error {
		if j == 17 || j == 150 {
			return fmt.Errorf("job %d failed", j)
		}
		return nil
	})
	if err == nil || err.Error() != "job 17 failed" {
		t.Errorf("error = %v, want job 17's", err)
	}
	// Fewer jobs than clones run on the first clones only: Do puts no
	// goroutine on a clone that has no job to run.
	for rep := 0; rep < 50; rep++ {
		used := make([]int, 2)
		if err := pool.Do(len(used), func(j int, c *ctx) error {
			used[j] = c.id
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for j, id := range used {
			if id >= len(used) {
				t.Fatalf("job %d of %d ran on clone %d", j, len(used), id)
			}
		}
	}
	// A single-clone pool has the same contract: all jobs attempted, the
	// smallest-index error reported.
	solo, err := NewPool(1, func(i int) (*ctx, error) { return &ctx{id: i}, nil })
	if err != nil {
		t.Fatal(err)
	}
	attempted := make([]bool, 10)
	err = solo.Do(10, func(j int, c *ctx) error {
		attempted[j] = true
		if j == 3 || j == 7 {
			return fmt.Errorf("job %d failed", j)
		}
		return nil
	})
	if err == nil || err.Error() != "job 3 failed" {
		t.Errorf("solo pool error = %v, want job 3's", err)
	}
	for j, a := range attempted {
		if !a {
			t.Errorf("solo pool skipped job %d after an error", j)
		}
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{1, 3} {
		hits := make([]bool, 50)
		if err := ForEach(workers, 50, func(j int) error { hits[j] = true; return nil }); err != nil {
			t.Fatal(err)
		}
		for j, h := range hits {
			if !h {
				t.Fatalf("workers %d: job %d not run", workers, j)
			}
		}
	}
	if err := ForEach(2, 10, func(j int) error {
		if j >= 4 {
			return fmt.Errorf("boom %d", j)
		}
		return nil
	}); err == nil || err.Error() != "boom 4" {
		t.Errorf("ForEach error = %v, want boom 4", err)
	}
}

// A Pool has at least one clone, returns a factory error with the clones
// built so far, hands out its clones by index, and refuses to run when a
// failing factory left it without clones.
func TestPoolLifecycle(t *testing.T) {
	pool, err := NewPool(0, func(i int) (int, error) { return 10 + i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 1 || pool.Get(0) != 10 {
		t.Errorf("NewPool(0): %d clones, clone 0 = %d; want one clone, 10", pool.Size(), pool.Get(0))
	}
	partial, err := NewPool(3, func(i int) (int, error) {
		if i == 2 {
			return 0, fmt.Errorf("clone %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "clone 2 failed" || partial.Size() != 2 {
		t.Errorf("failing factory: err = %v with %d clones, want clone 2's error with 2", err, partial.Size())
	}
	empty, err := NewPool(3, func(i int) (int, error) { return 0, fmt.Errorf("clone %d failed", i) })
	if err == nil || empty.Size() != 0 {
		t.Fatalf("factory failing at clone 0: err = %v with %d clones, want an error with none", err, empty.Size())
	}
	if err := empty.Do(3, func(int, int) error { return nil }); err == nil || err.Error() != "congest: Do on an empty pool" {
		t.Errorf("Do on an empty pool: err = %v, want the empty-pool error", err)
	}
}

// Evaluation contexts built by their constructors share the topology but
// nothing mutable: concurrent evaluations on a pool of them must agree with
// the serial sessions. Run with -race this also proves the isolation.
func TestSessionCloneConcurrent(t *testing.T) {
	g := graph.RandomConnected(96, 0.06, 7)
	info, _, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	walk := NewWalkSession(topo, info, info.Children, 2*info.D)
	ecc := NewEccSession(topo, info, 6*info.D+2)
	n := g.N()
	want := make([]int, n)
	for u0 := 0; u0 < n; u0++ {
		tau, _, err := walk.Eval(u0)
		if err != nil {
			t.Fatal(err)
		}
		want[u0], _, err = ecc.Eval(tau)
		if err != nil {
			t.Fatal(err)
		}
	}
	type evalCtx struct {
		w *WalkSession
		e *EccSession
	}
	pool, err := NewPool(4, func(int) (*evalCtx, error) {
		return &evalCtx{
			w: NewWalkSession(topo, info, info.Children, 2*info.D),
			e: NewEccSession(topo, info, 6*info.D+2),
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, n)
	if err := pool.Do(n, func(j int, c *evalCtx) error {
		tau, _, err := c.w.Eval(j)
		if err != nil {
			return err
		}
		got[j], _, err = c.e.Eval(tau)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("pooled evaluations differ from the serial session")
	}
}

// NewNetworkOn over a shared topology must behave exactly like NewNetwork:
// the topology cache changes construction cost, not behavior.
func TestTopologySharedAcrossNetworks(t *testing.T) {
	g := graph.RandomConnected(80, 0.06, 2)
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ClassicalExactDiameter(g)
	if err != nil {
		t.Fatal(err)
	}
	// Two more full runs over the same cached topology: results identical.
	for rep := 0; rep < 2; rep++ {
		info, m, err := PreprocessOn(topo)
		if err != nil {
			t.Fatal(err)
		}
		got := ExactResult{}
		got.Metrics.Add(m)
		tourLen := 2 * (g.N() - 1)
		diam, phases := refClassicalPhases(t, topo, info, info.Leader, tourLen, 2*tourLen+2*info.D+2)
		for _, pm := range phases {
			got.Metrics.Add(pm)
		}
		got.Diameter = diam
		if got != want {
			t.Fatalf("rep %d: composed run on shared topology %+v, want %+v", rep, got, want)
		}
	}
}

// TestCloneObserverRefused: cloning a session that has an observer is an
// explicit error (the clones would share the callback and interleave their
// traces); unobserved sessions keep cloning.
func TestCloneObserverRefused(t *testing.T) {
	topo, err := NewTopology(graph.Path(8))
	if err != nil {
		t.Fatal(err)
	}
	var trace []string
	observed := NewSession(topo, func(v int) *LeaderElectNode { return NewLeaderElectNode() },
		WithObserver(recordObs(&trace)))
	if _, err := observed.Clone(); err == nil {
		t.Error("Clone of an observed session: no error")
	}
	plain := NewSession(topo, func(v int) *LeaderElectNode { return NewLeaderElectNode() })
	if _, err := plain.Clone(); err != nil {
		t.Fatal(err)
	}
}
