package qcongest

import (
	"math/rand"
	"testing"
)

// End-to-end smoke test of the public API: every exported entry point runs
// on a small instance.
func TestPublicAPIEndToEnd(t *testing.T) {
	g := RandomConnected(24, 0.1, 1)

	cres, err := ClassicalExactDiameter(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if cres.Diameter != want {
		t.Errorf("classical: %d, want %d", cres.Diameter, want)
	}

	qres, err := QuantumExactDiameter(g, QuantumOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if qres.Diameter > want {
		t.Errorf("quantum overshoots: %d > %d", qres.Diameter, want)
	}
	if qres.Rounds <= 0 || qres.Iterations < 0 {
		t.Errorf("bad accounting: %+v", qres)
	}

	ares, err := ClassicalApproxDiameter(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ares.Diameter > want {
		t.Errorf("approx overshoots: %d", ares.Diameter)
	}

	qa, err := QuantumApproxDiameter(g, QuantumOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if qa.Diameter > want {
		t.Errorf("quantum approx overshoots: %d", qa.Diameter)
	}
}

func TestPublicLowerBoundAPI(t *testing.T) {
	red, err := NewHW12Reduction(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x, y := RandomIntersectingPair(red.K, rng)
	res, err := TwoPartyFromCongest(red, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disj != 0 {
		t.Errorf("DISJ = %d, want 0", res.Disj)
	}

	gres, err := BlockedGroverDisj(x, y, red.K, rng)
	if err != nil {
		t.Fatal(err)
	}
	if gres.Disj != 0 {
		t.Errorf("grover DISJ = %d, want 0", gres.Disj)
	}
	if d, err := Disj(x, y); err != nil || d != 0 {
		t.Errorf("Disj = %d, %v, want 0", d, err)
	}
	// Inputs of different lengths are an error, never a panic.
	if _, err := Disj(NewBits(3), NewBits(4)); err == nil {
		t.Error("Disj accepted inputs of lengths 3 and 4")
	}
	// Nil inputs, a nil rng and a nil reduction are errors, never panics.
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Disj nil bits", func() error { _, err := Disj(nil, y); return err }},
		{"ClassicalDisj nil bits", func() error { _, _, err := ClassicalDisj(x, nil); return err }},
		{"BlockedGroverDisj nil bits", func() error { _, err := BlockedGroverDisj(nil, y, 2, rng); return err }},
		{"BlockedGroverDisj nil rng", func() error { _, err := BlockedGroverDisj(x, y, 2, nil); return err }},
		{"TwoPartyFromCongest nil reduction", func() error { _, err := TwoPartyFromCongest(nil, x, y); return err }},
		{"TwoPartyFromCongest nil bits", func() error { _, err := TwoPartyFromCongest(red, x, nil); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			if err := tc.run(); err == nil {
				t.Fatal("no error")
			}
		})
	}

	alg := RelayAlgorithm(3, func(a, b uint64) uint64 { return a ^ b })
	native, err := alg.RunNative(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := alg.RunTwoParty(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range native.R {
		if native.R[i] != sim.State.R[i] {
			t.Fatalf("simulation mismatch at R[%d]", i)
		}
	}
}

func TestLemma1CoveragePublic(t *testing.T) {
	minProb, bound, err := Lemma1Coverage(Path(16))
	if err != nil {
		t.Fatal(err)
	}
	if minProb < bound {
		t.Errorf("coverage %g < bound %g", minProb, bound)
	}
}

// A custom wire message defined entirely through the public facade: a ping
// token counting its hops around a cycle. Kinds 20..31 are reserved for
// external programs.
type pingMsg struct{ Hops int }

const kindPing MessageKind = 20

func (m *pingMsg) WireKind() MessageKind       { return kindPing }
func (m *pingMsg) MarshalWire(w *WireWriter)   { w.WriteID(m.Hops, 2*w.N) }
func (m *pingMsg) UnmarshalWire(r *WireReader) { m.Hops = r.ReadID(2 * r.N) }
func (m *pingMsg) DeclaredBits(n int) int      { return 5 + BitsForID(2*n) }

func init() {
	RegisterMessageKind(kindPing, "test-ping", func() WireMessage { return new(pingMsg) })
}

// pingNode forwards the token to its clockwise neighbor until it returns
// to node 0.
type pingNode struct {
	id      int
	holding bool
	hops    int
	done    bool
	tx, rx  pingMsg
}

func (p *pingNode) Send(env *CongestEnv, out *Outbox) {
	if p.id == 0 && env.Round == 1 {
		p.holding = true
		p.hops = 0
	}
	if !p.holding {
		return
	}
	p.holding = false
	p.done = true
	p.tx.Hops = p.hops + 1
	out.Put((p.id+1)%env.N, &p.tx)
}

func (p *pingNode) Receive(env *CongestEnv, inbox []Inbound) {
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != kindPing {
			continue
		}
		if err := in.Decode(env, &p.rx); err != nil {
			panic(err)
		}
		if p.id == 0 {
			p.done = true // token came home
		} else {
			p.holding = true
			p.hops = p.rx.Hops
		}
	}
}

func (p *pingNode) Done() bool { return p.done }

// The wire format is usable through the public facade, and the engine's
// accounting is the encoded message lengths — verifiable from the outside.
func TestPublicWireFormat(t *testing.T) {
	const n = 8
	g := Cycle(n)
	var transcriptBits int
	obs := func(round, from, to, bits int, wire WireView) {
		if round == 0 {
			return // run boundary marker
		}
		transcriptBits += wire.Len()
		if got := wire.Kind(); got != kindPing {
			t.Errorf("observed kind %v", got)
		}
	}
	nw, err := NewCongestNetwork(g, func(v int) CongestNode { return &pingNode{id: v} },
		WithStrictAccounting(), WithCongestObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(4 * n); err != nil {
		t.Fatal(err)
	}
	m := nw.Metrics()
	perMsg := 5 + BitsForID(2*n) // kind tag + hop counter
	if m.Messages != n || m.Bits != n*perMsg {
		t.Errorf("metrics %+v, want %d messages of %d bits", m, n, perMsg)
	}
	if transcriptBits != m.Bits {
		t.Errorf("observer saw %d bits, metrics %d", transcriptBits, m.Bits)
	}
	if m.Rounds != n {
		t.Errorf("rounds = %d, want %d", m.Rounds, n)
	}
	if got := nw.Node(n - 1).(*pingNode).hops; got != n-1 {
		t.Errorf("node %d saw hop count %d, want %d", n-1, got, n-1)
	}
}

// ResetNode makes pingNode reusable: a public-API program opts into
// sessions by implementing CongestResettable.
func (p *pingNode) ResetNode() {
	p.holding = false
	p.hops = 0
	p.done = false
}

// Execution sessions work end to end through the public facade: build the
// topology and session once, Run repeatedly with identical results,
// and fan independent executions out over a Pool.
func TestPublicSessionAPI(t *testing.T) {
	const n = 8
	g := Cycle(n)
	topo, err := NewCongestTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewCongestNetwork(g, func(v int) CongestNode { return &pingNode{id: v} })
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Run(4 * n); err != nil {
		t.Fatal(err)
	}
	want := fresh.Metrics()

	s := NewCongestSession(topo, func(v int) *pingNode { return &pingNode{id: v} })
	for rep := 0; rep < 3; rep++ {
		if err := s.Run(4 * n); err != nil {
			t.Fatal(err)
		}
		if got := s.Metrics(); got != want {
			t.Errorf("rep %d: session metrics %+v, want %+v", rep, got, want)
		}
		if got := s.Node(n - 1).hops; got != n-1 {
			t.Errorf("rep %d: hop count %d, want %d", rep, got, n-1)
		}
	}

	pool, err := NewPool(3, func(int) (*CongestSession[*pingNode], error) {
		return s.Clone()
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics := make([]CongestMetrics, 9)
	if err := pool.Do(len(metrics), func(j int, c *CongestSession[*pingNode]) error {
		if err := c.Run(4 * n); err != nil {
			return err
		}
		metrics[j] = c.Metrics()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for j, m := range metrics {
		if m != want {
			t.Errorf("pool job %d: metrics %+v, want %+v", j, m, want)
		}
	}
	if err := ParallelForEach(2, 4, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// The Theorem 10 transcript — the encoded bits crossing the cut, captured
// through the observer — must be bit-identical across repeated runs: the
// session refactor must not perturb the lower-bound machinery's canonical
// traces.
func TestTheorem10TranscriptStableAcrossRuns(t *testing.T) {
	red, err := NewHW12Reduction(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x, y := RandomIntersectingPair(red.K, rng)
	ref, err := TwoPartyFromCongest(red, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if ref.CutBits == 0 {
		t.Fatal("reference transcript is empty")
	}
	for rep := 0; rep < 2; rep++ {
		got, err := TwoPartyFromCongest(red, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if got.Disj != ref.Disj || got.Rounds != ref.Rounds || got.CutBits != ref.CutBits {
			t.Fatalf("rep %d: (disj %d, rounds %d, bits %d), want (%d, %d, %d)",
				rep, got.Disj, got.Rounds, got.CutBits, ref.Disj, ref.Rounds, ref.CutBits)
		}
		if got.Transcript.String() != ref.Transcript.String() {
			t.Fatalf("rep %d: transcript bits differ", rep)
		}
	}
}

// TestPublicDistanceParameterSuite exercises the distance-parameter suite
// through the public facade: radius, eccentricities and weighted diameter,
// classical and quantum, against the sequential graph oracles.
func TestPublicDistanceParameterSuite(t *testing.T) {
	g := RandomConnected(26, 0.12, 9)
	wantRad, err := g.Radius()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Radius(g, QuantumOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diameter != wantRad {
		t.Fatalf("quantum radius %d, oracle %d", res.Diameter, wantRad)
	}

	wantEcc, err := g.AllEccentricities()
	if err != nil {
		t.Fatal(err)
	}
	eres, err := Eccentricities(g, QuantumOptions{Seed: 5, Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(eres.Ecc) != len(wantEcc) {
		t.Fatalf("ecc vector length %d, want %d", len(eres.Ecc), len(wantEcc))
	}
	for v := range wantEcc {
		if eres.Ecc[v] != wantEcc[v] {
			t.Fatalf("ecc[%d] = %d, oracle %d", v, eres.Ecc[v], wantEcc[v])
		}
	}
	ceccs, _, err := ClassicalEccentricities(g)
	if err != nil {
		t.Fatal(err)
	}
	for v := range wantEcc {
		if ceccs[v] != wantEcc[v] {
			t.Fatalf("classical ecc[%d] = %d, oracle %d", v, ceccs[v], wantEcc[v])
		}
	}

	wg := WithWeights(g, 7, 11)
	wantWD, err := wg.WeightedDiameter()
	if err != nil {
		t.Fatal(err)
	}
	wres, err := WeightedDiameter(wg, QuantumOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if wres.Diameter != wantWD {
		t.Fatalf("quantum weighted diameter %d, oracle %d", wres.Diameter, wantWD)
	}
	cres, err := ClassicalWeightedDiameter(wg)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Diameter != wantWD {
		t.Fatalf("classical weighted diameter %d, oracle %d", cres.Diameter, wantWD)
	}
	// Radius follows the graph's metric: on the weighted copy it equals the
	// weighted radius.
	wantWR, err := wg.WeightedRadius()
	if err != nil {
		t.Fatal(err)
	}
	wrres, err := Radius(wg, QuantumOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if wrres.Diameter != wantWR {
		t.Fatalf("quantum weighted radius %d, oracle %d", wrres.Diameter, wantWR)
	}
}

// TestNilGraphIsAnError runs every graph-taking entry point of the facade on
// a nil graph: each must return an error, never panic.
func TestNilGraphIsAnError(t *testing.T) {
	opts := QuantumOptions{Seed: 1}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"ClassicalExactDiameter", func() error { _, err := ClassicalExactDiameter(nil); return err }},
		{"ClassicalApproxDiameter", func() error { _, err := ClassicalApproxDiameter(nil, 0, 1); return err }},
		{"ClassicalEccentricities", func() error { _, _, err := ClassicalEccentricities(nil); return err }},
		{"ClassicalWeightedDiameter", func() error { _, err := ClassicalWeightedDiameter(nil); return err }},
		{"QuantumExactDiameter", func() error { _, err := QuantumExactDiameter(nil, opts); return err }},
		{"QuantumExactDiameterSimple", func() error { _, err := QuantumExactDiameterSimple(nil, opts); return err }},
		{"QuantumApproxDiameter", func() error { _, err := QuantumApproxDiameter(nil, opts); return err }},
		{"Radius", func() error { _, err := Radius(nil, opts); return err }},
		{"WeightedDiameter", func() error { _, err := WeightedDiameter(nil, opts); return err }},
		{"WeightedRadius", func() error { _, err := WeightedRadius(nil, opts); return err }},
		{"APSP", func() error { _, err := APSP(nil, opts, nil); return err }},
		{"Eccentricities", func() error { _, err := Eccentricities(nil, opts); return err }},
		{"TriangleDetect", func() error { _, err := TriangleDetect(nil, opts); return err }},
		{"TriangleCount", func() error { _, err := TriangleCount(nil, opts); return err }},
		{"MinTreeCut", func() error { _, err := MinTreeCut(nil, opts); return err }},
		{"NewCongestTopology", func() error { _, err := NewCongestTopology(nil); return err }},
		{"NewCongestNetwork", func() error { _, err := NewCongestNetwork(nil, nil); return err }},
		{"Lemma1Coverage", func() error { _, _, err := Lemma1Coverage(nil); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			if err := tc.run(); err == nil {
				t.Fatal("nil graph: no error")
			}
		})
	}
}
