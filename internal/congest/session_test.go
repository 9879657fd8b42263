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
	tau, mW, err := TokenWalk(g, info, info.Children, u0, 2*info.D, o...)
	if err != nil {
		t.Fatal(err)
	}
	val, mR, err := EccentricitiesOf(g, info, tau, 6*info.D+2, o...)
	if err != nil {
		t.Fatal(err)
	}
	r.Value, r.Walk, r.Rest = val, mW, mR
	return r
}

// The tentpole contract: a session Reset+Run is bit-for-bit identical to a
// freshly built network — values, Metrics and encoded observer traces —
// for every worker count, on the first execution and on every re-run.
func TestSessionReuseBitIdentical(t *testing.T) {
	for _, seed := range []int64{3, 9} {
		g := graph.RandomConnected(130, 0.045, seed)
		info, _, err := Preprocess(g, WithWorkers(1))
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
		for _, k := range []int{1, 2, 3, 8} {
			var trace []string
			o := []Option{WithObserver(recordObs(&trace)), WithWorkers(k), WithStrictAccounting()}
			walk := NewWalkSession(topo, info, info.Children, 2*info.D, o...)
			ecc := NewEccSession(topo, info, 6*info.D+2, o...)
			for pass := 0; pass < 2; pass++ { // pass 1 re-runs warm sessions
				for _, u0 := range u0s {
					want := freshFigure2(t, g, info, u0, WithWorkers(k), WithStrictAccounting())
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
						t.Fatalf("seed %d workers %d pass %d u0 %d: session (%d, %+v, %+v) != fresh (%d, %+v, %+v)",
							seed, k, pass, u0, val, mW, mR, want.Value, want.Walk, want.Rest)
					}
					if !reflect.DeepEqual(trace, want.Trace) {
						t.Fatalf("seed %d workers %d pass %d u0 %d: observer wire trace differs (%d vs %d events)",
							seed, k, pass, u0, len(trace), len(want.Trace))
					}
				}
			}
			walk.Close()
			ecc.Close()
		}
	}
}

// PrepareApprox now runs its counting probes on reused sessions; its output
// and metrics must be unchanged across worker counts and identical to the
// serial execution.
func TestPrepareApproxSessionDeterministic(t *testing.T) {
	g := graph.RandomConnected(90, 0.06, 5)
	wantPrep, wantM, err := PrepareApprox(g, 9, 11, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 8} {
		prep, m, err := PrepareApprox(g, 9, 11, WithWorkers(k))
		if err != nil {
			t.Fatal(err)
		}
		if m != wantM {
			t.Errorf("workers %d: metrics %+v, want %+v", k, m, wantM)
		}
		if !reflect.DeepEqual(prep, wantPrep) {
			t.Errorf("workers %d: preparation outputs differ", k)
		}
	}
}

// A session must refuse to run twice without a Reset, and must refuse to
// Reset programs that are not Resettable.
func TestSessionLifecycleErrors(t *testing.T) {
	g := graph.Path(16)
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(topo, func(v int) Node { return NewLeaderElectNode() })
	defer s.Close()
	if err := s.Run(64); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(64); err == nil {
		t.Error("re-run without Reset accepted")
	}
	if err := s.Reset(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(64); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Run(64); err == nil {
		t.Error("Run on a closed session accepted")
	}
	if err := s.Reset(nil); err == nil {
		t.Error("Reset on a closed session accepted")
	}

	irr := NewSession(topo, func(v int) Node { return &floodNode{rounds: 1} })
	defer irr.Close()
	if err := irr.Reset(nil); err == nil {
		t.Error("Reset of non-Resettable programs accepted")
	}
}

// Re-running a warm session must stay (near) allocation-free: the whole
// point of the session layer is that an Evaluation re-run touches only
// recycled state. The bound is a small constant (params boxing), not a
// function of n or of the round count.
func TestEvalSteadyStateAllocs(t *testing.T) {
	g := graph.Path(256)
	info, _, err := Preprocess(g, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2} {
		walk := NewWalkSession(topo, info, info.Children, 2*info.D, WithWorkers(k))
		ecc := NewEccSession(topo, info, 6*info.D+2, WithWorkers(k))
		evalOnce := func(u0 int) {
			tau, _, err := walk.Eval(u0)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ecc.Eval(tau); err != nil {
				t.Fatal(err)
			}
		}
		evalOnce(3) // warm up: engines built, buffers grown
		perEval := testing.AllocsPerRun(5, func() { evalOnce(200) })
		if perEval > 24 {
			t.Errorf("workers %d: %.1f allocs per re-run Evaluation, want near zero", k, perEval)
		}
		walk.Close()
		ecc.Close()
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

// A non-nil Reset params of a type the program does not understand must
// panic loudly instead of silently re-running stale inputs.
func TestResetRejectsWrongParamsType(t *testing.T) {
	g := graph.Path(8)
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(topo, func(v int) Node { return NewWaveNode(false, -1, 4) })
	defer s.Close()
	defer func() {
		if recover() == nil {
			t.Error("WaveNode accepted WalkStart params")
		}
	}()
	_ = s.Reset(WalkStart{Start: 0})
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

// Cloned sessions share the topology but nothing mutable: concurrent
// evaluations on clones must agree with the serial session. Run with -race
// this also proves the isolation.
func TestSessionCloneConcurrent(t *testing.T) {
	g := graph.RandomConnected(96, 0.06, 7)
	info, _, err := Preprocess(g, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	walk := NewWalkSession(topo, info, info.Children, 2*info.D, WithWorkers(1))
	defer walk.Close()
	ecc := NewEccSession(topo, info, 6*info.D+2, WithWorkers(1))
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
		w, err := walk.Clone()
		if err != nil {
			return nil, err
		}
		e, err := ecc.Clone()
		if err != nil {
			return nil, err
		}
		return &evalCtx{w: w, e: e}, nil
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
	want, err := ClassicalExactDiameter(g, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	// Two more full runs over the same cached topology: results identical.
	for rep := 0; rep < 2; rep++ {
		info, m, err := PreprocessOn(topo, WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		got := ExactResult{}
		got.Metrics.Add(m)
		tau, m2, err := TokenWalkOn(topo, info, info.Children, info.Leader, 2*(g.N()-1), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		got.Metrics.Add(m2)
		dv, m3, err := Wave(g, tau, 4*(g.N()-1)+2*info.D+2, WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		got.Metrics.Add(m3)
		diam, _, m4, err := ConvergecastMaxOn(topo, info, dv, nil, WithWorkers(2))
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
	observed := NewSession(topo, func(v int) Node { return NewLeaderElectNode() },
		WithObserver(recordObs(&trace)))
	defer observed.Close()
	if _, err := observed.Clone(); err == nil {
		t.Error("Clone of an observed session: no error")
	}
	plain := NewSession(topo, func(v int) Node { return NewLeaderElectNode() })
	defer plain.Close()
	c, err := plain.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	// The Evaluation sessions built on Session inherit the refusal.
	info, _, err := PreprocessOn(topo)
	if err != nil {
		t.Fatal(err)
	}
	flags, _, err := TriangleFlagsOn(topo)
	if err != nil {
		t.Fatal(err)
	}
	obs := WithObserver(recordObs(&trace))
	for name, clone := range map[string]func() error{
		"WalkSession": func() error {
			s := NewWalkSession(topo, info, info.Children, 2*info.D, obs)
			defer s.Close()
			_, err := s.Clone()
			return err
		},
		"EccSession": func() error {
			s := NewEccSession(topo, info, 2*info.D+1, obs)
			defer s.Close()
			_, err := s.Clone()
			return err
		},
		"WeightedEccSession": func() error {
			s := NewWeightedEccSession(topo, info, obs)
			defer s.Close()
			_, err := s.Clone()
			return err
		},
		"CutSession": func() error {
			s := NewCutSession(topo, info, obs)
			defer s.Close()
			_, err := s.Clone()
			return err
		},
		"TriangleSession": func() error {
			s := NewTriangleSession(topo, info, flags, obs)
			defer s.Close()
			_, err := s.Clone()
			return err
		},
	} {
		if err := clone(); err == nil {
			t.Errorf("Clone of an observed %s: no error", name)
		}
	}
}
