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

// freshFigure2 runs one Evaluation the pre-session way: a fresh network per
// phase.
func freshFigure2(t *testing.T, g *graph.Graph, info *PreInfo, u0 int, opts ...Option) figure2Result {
	t.Helper()
	var r figure2Result
	o := append([]Option{WithObserver(recordObs(&r.Trace))}, opts...)
	topo := mustTopology(t, g)
	tau, mW, err := TokenWalkOn(topo, info, info.Children, u0, 2*info.D, o...)
	if err != nil {
		t.Fatal(err)
	}
	dv, mR, err := WaveOn(topo, tau, 6*info.D+2, o...)
	if err != nil {
		t.Fatal(err)
	}
	val, _, mC, err := ConvergecastMaxOn(topo, info, dv, nil, o...)
	if err != nil {
		t.Fatal(err)
	}
	mR.Add(mC)
	r.Value, r.Walk, r.Rest = val, mW, mR
	return r
}

// The tentpole contract: a session Reset+Run is bit-for-bit identical to a
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
		walk.Close()
		ecc.Close()
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

// A session must refuse to run twice without a Reset, and must refuse to
// run or Reset once closed.
func TestSessionLifecycleErrors(t *testing.T) {
	g := graph.Path(16)
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(topo, func(v int) *LeaderElectNode { return NewLeaderElectNode() })
	defer s.Close()
	if err := s.Run(64); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(64); err == nil {
		t.Error("re-run without Reset accepted")
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(64); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Run(64); err == nil {
		t.Error("Run on a closed session accepted")
	}
	if err := s.Reset(); err == nil {
		t.Error("Reset on a closed session accepted")
	}
}

// Every Evaluation session reports its failures as errors: a run that
// breaks the bandwidth fails its Eval, and after Close every Eval is
// refused, since Close fences the session whatever engine state it holds.
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
	tau = append([]int(nil), tau...)
	walk.Close()
	type evalSession struct {
		name  string
		eval  func() error
		close func()
	}
	build := func(opts ...Option) []evalSession {
		walk := NewWalkSession(topo, info, info.Children, 2*info.D, opts...)
		ecc := NewEccSession(topo, info, 6*info.D+2, opts...)
		wecc := NewWeightedEccSession(topo, info, opts...)
		cut := NewCutSession(topo, info, opts...)
		tri := NewTriangleSession(topo, info, flags, opts...)
		skel := oracle.NewEvalSession(opts...)
		row := make([]int, g.N())
		return []evalSession{
			{"walk", func() error { _, _, err := walk.Eval(0); return err }, walk.Close},
			{"ecc", func() error { _, _, err := ecc.Eval(tau); return err }, ecc.Close},
			{"weighted ecc", func() error { _, _, err := wecc.Eval(0); return err }, wecc.Close},
			{"cut", func() error { _, _, err := cut.Eval(0); return err }, cut.Close},
			{"triangle", func() error { _, _, err := tri.Eval(0); return err }, tri.Close},
			{"skeleton", func() error { _, _, err := skel.Eval(0, row); return err }, skel.Close},
		}
	}
	for _, e := range build(WithBandwidth(1)) {
		if err := e.eval(); err == nil || !strings.Contains(err.Error(), "exceeds bandwidth") {
			t.Errorf("%s at 1 bit of bandwidth: err = %v, want a bandwidth error", e.name, err)
		}
		e.close()
	}
	for _, e := range build() {
		if err := e.eval(); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		e.close()
		e.close() // Close is idempotent
		if err := e.eval(); err == nil || !strings.Contains(err.Error(), "closed session") {
			t.Errorf("%s after Close: err = %v, want the closed-session error", e.name, err)
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
		walk.Close()
		ecc.Close()
		wecc.Close()
		cut.Close()
		tri.Close()
		skel.Close()
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
	defer pool.Close(func(*ctx) {})
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
	defer solo.Close(func(*ctx) {})
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
	// A closed (or empty) pool must refuse work loudly, not silently run
	// zero jobs.
	solo.Close(func(*ctx) {})
	if err := solo.Do(5, func(int, *ctx) error { return nil }); err == nil {
		t.Error("Do on a closed pool accepted")
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
// built so far, hands out its clones by index and refuses to run once
// closed.
func TestPoolLifecycle(t *testing.T) {
	pool, err := NewPool(0, func(i int) (int, error) { return 10 + i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 1 || pool.Get(0) != 10 {
		t.Errorf("NewPool(0): %d clones, clone 0 = %d; want one clone, 10", pool.Size(), pool.Get(0))
	}
	closed := 0
	pool.Close(func(int) { closed++ })
	if closed != 1 {
		t.Errorf("Close closed %d clones, want 1", closed)
	}
	if err := pool.Do(3, func(int, int) error { return nil }); err == nil {
		t.Error("Do on a closed pool accepted")
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
	defer walk.Close()
	ecc := NewEccSession(topo, info, 6*info.D+2)
	defer ecc.Close()
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
	defer pool.Close(func(c *evalCtx) { c.w.Close(); c.e.Close() })
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
		tau, m2, err := TokenWalkOn(topo, info, info.Children, info.Leader, 2*(g.N()-1))
		if err != nil {
			t.Fatal(err)
		}
		got.Metrics.Add(m2)
		dv, m3, err := WaveOn(topo, tau, 4*(g.N()-1)+2*info.D+2)
		if err != nil {
			t.Fatal(err)
		}
		got.Metrics.Add(m3)
		diam, _, m4, err := ConvergecastMaxOn(topo, info, dv, nil)
		if err != nil {
			t.Fatal(err)
		}
		got.Metrics.Add(m4)
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
	defer observed.Close()
	if _, err := observed.Clone(); err == nil {
		t.Error("Clone of an observed session: no error")
	}
	plain := NewSession(topo, func(v int) *LeaderElectNode { return NewLeaderElectNode() })
	defer plain.Close()
	c, err := plain.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}
