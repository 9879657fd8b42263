package congest

import (
	"reflect"
	"testing"

	"qcongest/internal/graph"
)

// TestClassicalPhasesPinned pins the complete results of
// ClassicalExactDiameter, ClassicalEccentricities and PreprocessOn, every
// Metrics field included, so a change in how their phases are run cannot
// move a message or a bit unnoticed.
func TestClassicalPhasesPinned(t *testing.T) {
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		exact  ExactResult
		ecc    Metrics
		leader int
		d      int
		pre    Metrics
	}{
		{"random40", graph.RandomConnected(40, 0.1, 3),
			ExactResult{Diameter: 4, Metrics: Metrics{Rounds: 263, Messages: 10002, Bits: 199134, MaxEdgeBits: 21, MaxStateBits: 517, MaxInboxSize: 12, DroppedRounds: 32}},
			Metrics{Rounds: 259, Messages: 9963, Bits: 198393, MaxEdgeBits: 21, MaxStateBits: 517, MaxInboxSize: 12, DroppedRounds: 31},
			39, 3,
			Metrics{Rounds: 17, Messages: 1005, Bits: 10899, MaxEdgeBits: 16, MaxStateBits: 517, MaxInboxSize: 12, DroppedRounds: 2}},
		{"grid5x6", graph.Grid(5, 6),
			ExactResult{Diameter: 9, Metrics: Metrics{Rounds: 245, Messages: 3751, Bits: 64202, MaxEdgeBits: 19, MaxStateBits: 322, MaxInboxSize: 4, DroppedRounds: 43}},
			Metrics{Rounds: 235, Messages: 3722, Bits: 63709, MaxEdgeBits: 19, MaxStateBits: 322, MaxInboxSize: 4, DroppedRounds: 42},
			29, 9,
			Metrics{Rounds: 41, Messages: 724, Bits: 7153, MaxEdgeBits: 15, MaxStateBits: 322, MaxInboxSize: 4, DroppedRounds: 2}},
		{"caterpillar", graph.Caterpillar(10, 2),
			ExactResult{Diameter: 11, Metrics: Metrics{Rounds: 259, Messages: 2339, Bits: 39282, MaxEdgeBits: 19, MaxStateBits: 387, MaxInboxSize: 6, DroppedRounds: 19}},
			Metrics{Rounds: 247, Messages: 2310, Bits: 38789, MaxEdgeBits: 19, MaxStateBits: 387, MaxInboxSize: 6, DroppedRounds: 18},
			29, 11,
			Metrics{Rounds: 49, Messages: 512, Bits: 5033, MaxEdgeBits: 15, MaxStateBits: 387, MaxInboxSize: 6, DroppedRounds: 2}},
	} {
		exact, err := ClassicalExactDiameter(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if exact != c.exact {
			t.Errorf("%s: ClassicalExactDiameter = %+v, want %+v", c.name, exact, c.exact)
		}

		ecc, m, err := ClassicalEccentricities(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if m != c.ecc {
			t.Errorf("%s: ClassicalEccentricities metrics %+v, want %+v", c.name, m, c.ecc)
		}
		for v, e := range ecc {
			if ref, _ := c.g.Eccentricity(v); e != ref {
				t.Errorf("%s: ecc(%d) = %d, want %d", c.name, v, e, ref)
			}
		}

		info, m, err := PreprocessOn(mustTopology(t, c.g))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if info.Leader != c.leader || info.D != c.d || m != c.pre {
			t.Errorf("%s: PreprocessOn leader %d, d %d, metrics %+v; want %d, %d, %+v",
				c.name, info.Leader, info.D, m, c.leader, c.d, c.pre)
		}
		dist, _ := c.g.BFS(info.Leader)
		if !reflect.DeepEqual(info.Depth, dist) {
			t.Errorf("%s: PreprocessOn depths %v, want the BFS distances %v", c.name, info.Depth, dist)
		}
		for v, p := range info.Parent {
			if (p < 0) != (v == info.Leader) || p >= 0 && (dist[p] != dist[v]-1 || !c.g.HasEdge(p, v)) {
				t.Errorf("%s: PreprocessOn parent of %d is %d", c.name, v, p)
			}
		}
	}
}

// TestEvalErrorMetricsIncludeFailingRun pins the error-path Metrics rule:
// every Eval returns the Metrics of every run it executed, the failing run
// included. Each session has its first, then its last phase starved of
// bandwidth (WithBandwidth applied to that phase's network only); the
// Evaluation must fail and report the sum of the phases up to the failing
// one, whose run counted at least its failing round.
func TestEvalErrorMetricsIncludeFailingRun(t *testing.T) {
	g := graph.WithWeights(graph.RandomConnected(12, 0.2, 1), 9, 2)
	topo, info, oracle := skelFixture(t, g, 3)
	tau, _, err := TokenWalkOn(topo, info, info.Children, info.Leader, 2*(g.N()-1))
	if err != nil {
		t.Fatal(err)
	}
	flags, _, err := TriangleFlagsOn(topo)
	if err != nil {
		t.Fatal(err)
	}
	type eval func() (Metrics, error)
	for _, c := range []struct {
		name  string
		build func() (eval, []*Network)
	}{
		{"WalkSession", func() (eval, []*Network) {
			ws := NewWalkSession(topo, info, info.Children, 2*info.D)
			return func() (Metrics, error) { _, m, err := ws.Eval(0); return m, err }, []*Network{ws.p.nw}
		}},
		{"EccSession", func() (eval, []*Network) {
			es := NewEccSession(topo, info, 4*(g.N()-1)+2*info.D+2)
			return func() (Metrics, error) { _, m, err := es.Eval(tau); return m, err },
				[]*Network{es.wave.nw, es.cc.nw}
		}},
		{"WeightedEccSession", func() (eval, []*Network) {
			es := NewWeightedEccSession(topo, info)
			return func() (Metrics, error) { _, m, err := es.Eval(0); return m, err },
				[]*Network{es.sssp.nw, es.cc.nw}
		}},
		{"CutSession", func() (eval, []*Network) {
			cs := NewCutSession(topo, info)
			return func() (Metrics, error) { _, m, err := cs.Eval(3); return m, err },
				[]*Network{cs.mark.nw, cs.sum.nw}
		}},
		{"TriangleSession", func() (eval, []*Network) {
			ts := NewTriangleSession(topo, info, flags)
			return func() (Metrics, error) { _, m, err := ts.Eval(0); return m, err }, []*Network{ts.cc.nw}
		}},
		{"SkelEvalSession", func() (eval, []*Network) {
			es := oracle.NewEvalSession()
			return func() (Metrics, error) { _, m, err := es.Eval(0, nil); return m, err },
				[]*Network{es.bf.nw, es.relay.nw, es.cc.nw}
		}},
	} {
		for _, last := range []bool{false, true} {
			run, phases := c.build()
			starved := 0
			if last {
				starved = len(phases) - 1
			}
			WithBandwidth(1)(phases[starved])
			m, err := run()
			if err == nil {
				t.Fatalf("%s: phase %d starved, Eval returned no error", c.name, starved)
			}
			var want Metrics
			for _, nw := range phases[:starved+1] {
				want.Add(nw.metrics)
			}
			if m != want || phases[starved].metrics.Rounds == 0 {
				t.Errorf("%s: phase %d starved: Eval metrics %+v, want %+v (the failing run included)",
					c.name, starved, m, want)
			}
		}
	}
}
