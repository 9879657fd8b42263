package congest

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"qcongest/internal/graph"
)

func TestDefaultBandwidth(t *testing.T) {
	if bw := DefaultBandwidth(1024); bw != 56 {
		t.Errorf("DefaultBandwidth(1024) = %d, want 56", bw)
	}
	// Room for a two-field message plus its kind tag even on tiny networks.
	for n := 1; n <= 8; n++ {
		m := msgWave{Tau: 0, Delta: 0}
		_, width, _ := m.fields(n).pack()
		if got, bw := KindBits+width, DefaultBandwidth(n); got > bw {
			t.Errorf("n=%d: wave message %d bits exceeds default bandwidth %d", n, got, bw)
		}
	}
}

func TestNetworkRejectsDisconnected(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	if _, err := NewNetwork(g, func(v int) Node { return NewLeaderElectNode() }); err == nil {
		t.Error("disconnected graph accepted")
	}
}

// Every graph-taking entry point of the package returns an error on a nil
// graph instead of dereferencing it.
func TestNilGraphRejected(t *testing.T) {
	for name, run := range map[string]func() error{
		"NewTopology":               func() error { _, err := NewTopology(nil); return err },
		"NewNetwork":                func() error { _, err := NewNetwork(nil, nil); return err },
		"Preprocess":                func() error { _, _, err := Preprocess(nil); return err },
		"ClassicalExactDiameter":    func() error { _, err := ClassicalExactDiameter(nil); return err },
		"ClassicalApproxDiameter":   func() error { _, err := ClassicalApproxDiameter(nil, 0, 1); return err },
		"ClassicalEccentricities":   func() error { _, _, err := ClassicalEccentricities(nil); return err },
		"ClassicalWeightedDiameter": func() error { _, err := ClassicalWeightedDiameter(nil); return err },
	} {
		if err := run(); !errors.Is(err, errNilGraph) {
			t.Errorf("%s(nil): %v, want errNilGraph", name, err)
		}
	}
}

// The four classical entry points answer the graph of no vertices with one
// error, errEmptyGraph.
func TestClassicalEmptyGraph(t *testing.T) {
	empty := graph.New(0)
	for name, run := range map[string]func() error{
		"ClassicalExactDiameter":    func() error { _, err := ClassicalExactDiameter(empty); return err },
		"ClassicalApproxDiameter":   func() error { _, err := ClassicalApproxDiameter(empty, 0, 1); return err },
		"ClassicalEccentricities":   func() error { _, _, err := ClassicalEccentricities(empty); return err },
		"ClassicalWeightedDiameter": func() error { _, err := ClassicalWeightedDiameter(empty); return err },
	} {
		if err := run(); !errors.Is(err, errEmptyGraph) {
			t.Errorf("%s(empty): %v, want %v", name, err, errEmptyGraph)
		}
	}
}

// a node that sends to a non-neighbor, to exercise engine validation.
type rogueNode struct {
	sent bool
	tx   RawMessage
}

func (r *rogueNode) Send(env *Env, out *Outbox) {
	if r.sent {
		return
	}
	r.sent = true
	r.tx.Width = 1
	out.Put((env.ID+2)%env.N, &r.tx)
}
func (r *rogueNode) Receive(env *Env, inbox []Inbound) {}
func (r *rogueNode) Done() bool                        { return r.sent }

func TestEngineRejectsNonNeighborSend(t *testing.T) {
	g := graph.Path(4)
	nw, err := NewNetwork(g, func(v int) Node { return &rogueNode{} })
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(10); err == nil {
		t.Error("send to non-neighbor accepted")
	}
}

// a node that floods an oversized message — a real encoded megabit, not a
// declared size, so the violation the engine reports is measured.
type hogNode struct {
	sent bool
	tx   RawMessage
}

func (h *hogNode) Send(env *Env, out *Outbox) {
	if h.sent {
		return
	}
	h.sent = true
	if env.ID != 0 {
		return
	}
	h.tx.Width = 1 << 20
	out.Put(env.Neighbors[0], &h.tx)
}
func (h *hogNode) Receive(env *Env, inbox []Inbound) {}
func (h *hogNode) Done() bool                        { return h.sent }

func TestEngineEnforcesBandwidth(t *testing.T) {
	g := graph.Path(3)
	nw, err := NewNetwork(g, func(v int) Node { return &hogNode{} })
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(10); err == nil {
		t.Error("bandwidth violation accepted")
	}
	// With a big explicit bandwidth the same program passes.
	nw, err = NewNetwork(g, func(v int) Node { return &hogNode{} }, WithBandwidth(1<<21))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(10); err != nil {
		t.Errorf("run with raised bandwidth: %v", err)
	}
}

// TestDeliveryChainOrder pins the Outbox's circular delivery chains. Over
// three rounds of one Outbox, senders in ascending order stage 1-3 copies
// each to one receiver, by Put, by the neighbor-row Broadcast fast path and
// by a validated Broadcast, so every receiver's chain interleaves with the
// others'. Each inbox must list its copies in exact staging order, the
// receiver nobody sends to must get an empty inbox, and beginRound must
// leave every chain empty.
func TestDeliveryChainOrder(t *testing.T) {
	const n = 8
	nw := NewNetworkOn(mustTopology(t, graph.Complete(n)), func(int) Node { return neverDone{} }, WithBandwidth(1<<16))
	ob, env := newOutbox(nw), newEnv(n)
	rng := rand.New(rand.NewSource(7))
	type copyID struct{ from, seq int }
	checkEmpty := func(when string) {
		t.Helper()
		for to := 0; to < n; to++ {
			if ob.dest[to] != 0 || len(ob.appendChain(to, nil)) != 0 {
				t.Fatalf("%s: receiver %d still has a chain", when, to)
			}
		}
		if len(ob.touched) != 0 {
			t.Fatalf("%s: %d receivers still touched", when, len(ob.touched))
		}
	}
	for round := 1; round <= 3; round++ {
		ob.beginRound(round)
		checkEmpty(fmt.Sprintf("round %d start", round))
		want := make([][]copyID, n)
		// Vertex n-1 neither sends nor receives: in Complete(n) it ends
		// every other vertex's row, so the Broadcast prefix row[:n-2]
		// skips it, and every other target is drawn below it.
		for v := 0; v < n-1; v++ {
			ob.begin(v)
			other := func() int {
				for {
					if u := rng.Intn(n - 1); u != v {
						return u
					}
				}
			}
			to, copies := other(), 1+rng.Intn(3)
			for seq := 0; seq < copies; seq++ {
				m := &msgActivate{Dist: seq}
				var targets []int
				switch rng.Intn(3) {
				case 0:
					targets = []int{to}
					ob.Put(to, m)
				case 1:
					targets = nw.topo.Neighbors(v)[:n-2]
					ob.Broadcast(targets, m)
				default:
					targets = []int{other(), to}
					ob.Broadcast(targets, m)
				}
				for _, u := range targets {
					want[u] = append(want[u], copyID{v, seq})
				}
			}
			if ob.err != nil {
				t.Fatal(ob.err)
			}
		}
		if len(want[n-1]) != 0 {
			t.Fatalf("round %d: the test staged copies to the untouched receiver", round)
		}
		env.rd.words = ob.arena.written()
		for to := 0; to < n; to++ {
			inbox := ob.appendChain(to, nil)
			if len(inbox) != len(want[to]) {
				t.Fatalf("round %d: receiver %d got %d copies, want %d", round, to, len(inbox), len(want[to]))
			}
			for i := range inbox {
				var m msgActivate
				if err := inbox[i].Decode(&env, &m); err != nil {
					t.Fatal(err)
				}
				if got := (copyID{inbox[i].From, m.Dist}); got != want[to][i] {
					t.Fatalf("round %d: receiver %d copy %d = %+v, want %+v (staging order %+v)",
						round, to, i, got, want[to][i], want[to])
				}
			}
		}
	}
	ob.beginRound(4)
	checkEmpty("after beginRound")
}

func TestEngineTimesOut(t *testing.T) {
	g := graph.Path(2)
	// LeaderElect quiesces fast; instead use a never-done node.
	nw, err := NewNetwork(g, func(v int) Node { return neverDone{} })
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(5); err == nil {
		t.Error("expected timeout error")
	}
}

type neverDone struct{}

func (neverDone) Send(env *Env, out *Outbox)        {}
func (neverDone) Receive(env *Env, inbox []Inbound) {}
func (neverDone) Done() bool                        { return false }

func TestLeaderElection(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(12)},
		{"cycle", graph.Cycle(9)},
		{"random", graph.RandomConnected(25, 0.1, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := NewNetwork(tc.g, func(v int) Node { return NewLeaderElectNode() })
			if err != nil {
				t.Fatal(err)
			}
			if err := nw.Run(4 * tc.g.N()); err != nil {
				t.Fatal(err)
			}
			want := tc.g.N() - 1
			for v := 0; v < tc.g.N(); v++ {
				if got := nw.Node(v).(*LeaderElectNode).Leader; got != want {
					t.Errorf("node %d elected %d, want %d", v, got, want)
				}
			}
			d, _ := tc.g.Diameter()
			if r := nw.Metrics().Rounds; r > d+2 {
				t.Errorf("leader election took %d rounds, want <= D+2 = %d", r, d+2)
			}
		})
	}
}

func TestBFSProgramMatchesReference(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(10),
		graph.Cycle(11),
		graph.Grid(4, 6),
		graph.CompleteBinaryTree(15),
		graph.RandomConnected(30, 0.08, 2),
		graph.RandomConnected(30, 0.25, 3),
	}
	for gi, g := range graphs {
		root := g.N() - 1
		refDist, refParent := g.BFS(root)
		refEcc, _ := g.Eccentricity(root)
		nw, err := NewNetwork(g, func(v int) Node { return NewBFSNode(root) })
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.Run(8 * g.N()); err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		for v := 0; v < g.N(); v++ {
			b := nw.Node(v).(*BFSNode)
			if b.Dist != refDist[v] {
				t.Errorf("graph %d node %d: dist %d, want %d", gi, v, b.Dist, refDist[v])
			}
			if b.Parent != refParent[v] {
				t.Errorf("graph %d node %d: parent %d, want %d", gi, v, b.Parent, refParent[v])
			}
		}
		if got := nw.Node(root).(*BFSNode).Ecc; got != refEcc {
			t.Errorf("graph %d: ecc at root %d, want %d", gi, got, refEcc)
		}
		// Children lists must match the reference tree.
		tree, err := graph.NewBFSTree(g, root)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			got := append([]int(nil), nw.Node(v).(*BFSNode).Children...)
			want := tree.Child[v]
			if len(got) != len(want) {
				t.Fatalf("graph %d node %d: children %v, want %v", gi, v, got, want)
			}
			gotSet := map[int]bool{}
			for _, c := range got {
				gotSet[c] = true
			}
			for _, c := range want {
				if !gotSet[c] {
					t.Fatalf("graph %d node %d: children %v, want %v", gi, v, got, want)
				}
			}
		}
		// The whole construction is O(D): BFS + child notify + convergecast.
		if r := nw.Metrics().Rounds; r > 2*refEcc+6 {
			t.Errorf("graph %d: BFS construction took %d rounds, want <= %d", gi, r, 2*refEcc+6)
		}
	}
}

func TestPreprocess(t *testing.T) {
	g := graph.RandomConnected(40, 0.07, 5)
	info, m, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	if info.Leader != 39 {
		t.Errorf("leader = %d, want 39", info.Leader)
	}
	wantD, _ := g.Eccentricity(39)
	if info.D != wantD {
		t.Errorf("d = %d, want %d", info.D, wantD)
	}
	diam, _ := g.Diameter()
	if m.Rounds > 8*diam+20 {
		t.Errorf("preprocess took %d rounds for diameter %d", m.Rounds, diam)
	}
}

func TestTokenWalkFullTourMatchesReference(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(9),
		graph.CompleteBinaryTree(15),
		graph.RandomConnected(26, 0.1, 7),
		graph.Grid(5, 5),
	}
	for gi, g := range graphs {
		info, _, err := Preprocess(g)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := graph.NewBFSTree(g, info.Leader)
		if err != nil {
			t.Fatal(err)
		}
		refTau := tree.DFSNumbering()
		tau, m, err := TokenWalkOn(mustTopology(t, g), info, info.Children, info.Leader, 2*(g.N()-1))
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		for v := 0; v < g.N(); v++ {
			if tau[v] != refTau[v] {
				t.Errorf("graph %d vertex %d: tau %d, want %d", gi, v, tau[v], refTau[v])
			}
		}
		if m.Rounds != 2*(g.N()-1) {
			t.Errorf("graph %d: walk rounds %d, want %d", gi, m.Rounds, 2*(g.N()-1))
		}
	}
}

func TestTokenWalkWindowMatchesSetS(t *testing.T) {
	g := graph.RandomConnected(24, 0.09, 9)
	info, _, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := graph.NewBFSTree(g, info.Leader)
	if err != nil {
		t.Fatal(err)
	}
	d := info.D
	topo := mustTopology(t, g)
	for u0 := 0; u0 < g.N(); u0++ {
		tau, _, err := TokenWalkOn(topo, info, info.Children, u0, 2*d)
		if err != nil {
			t.Fatalf("u0=%d: %v", u0, err)
		}
		want := map[int]bool{}
		for _, v := range tree.SetS(u0, d) {
			want[v] = true
		}
		for v := 0; v < g.N(); v++ {
			if (tau[v] >= 0) != want[v] {
				t.Errorf("u0=%d vertex %d: visited=%v, want %v", u0, v, tau[v] >= 0, want[v])
			}
		}
		// Lemma 2 (first half): tau'(v) = tau(v) - tau(u0) mod tour length.
		refTau := tree.DFSNumbering()
		total := tree.TourLength()
		for v := 0; v < g.N(); v++ {
			if tau[v] < 0 {
				continue
			}
			delta := refTau[v] - refTau[u0]
			if delta < 0 {
				delta += total
			}
			if tau[v] != delta {
				t.Errorf("u0=%d vertex %d: tau' = %d, want %d", u0, v, tau[v], delta)
			}
		}
	}
}

func TestClassicalExactDiameter(t *testing.T) {
	hypercube4, err := graph.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{
		graph.Path(14),
		graph.Cycle(15),
		graph.Star(10),
		graph.Grid(4, 7),
		graph.CompleteBinaryTree(31),
		hypercube4,
		graph.Barbell(5, 4),
		graph.RandomConnected(35, 0.06, 1),
		graph.RandomConnected(35, 0.15, 2),
		graph.SmallWorld(40, 2, 0.2, 3),
	}
	for gi, g := range graphs {
		want, err := g.Diameter()
		if err != nil {
			t.Fatal(err)
		}
		res, err := ClassicalExactDiameter(g)
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		if res.Diameter != want {
			t.Errorf("graph %d: diameter %d, want %d", gi, res.Diameter, want)
		}
		// Linear-round upper bound with explicit constant: walk 2n +
		// waves (4n + 2D) + preprocessing and aggregation O(D), D < n.
		if res.Metrics.Rounds > 14*g.N()+60 {
			t.Errorf("graph %d: %d rounds for n=%d", gi, res.Metrics.Rounds, g.N())
		}
	}
}

func TestClassicalExactTinyGraphs(t *testing.T) {
	for n := 1; n <= 4; n++ {
		g := graph.Path(n)
		res, err := ClassicalExactDiameter(g)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Diameter != n-1 && !(n == 1 && res.Diameter == 0) {
			t.Errorf("n=%d: diameter %d, want %d", n, res.Diameter, n-1)
		}
	}
}

// The wave process on a window computes max ecc over S(u0): this is the
// classical core of the paper's Evaluation procedure (Figure 2).
func TestWindowedWaveComputesMaxEccOverS(t *testing.T) {
	g := graph.RandomConnected(22, 0.1, 4)
	info, _, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := graph.NewBFSTree(g, info.Leader)
	if err != nil {
		t.Fatal(err)
	}
	eccs, err := g.AllEccentricities()
	if err != nil {
		t.Fatal(err)
	}
	d := info.D
	topo := mustTopology(t, g)
	ecc := NewEccSession(topo, info, 6*d+2)
	for u0 := 0; u0 < g.N(); u0 += 3 {
		tau, _, err := TokenWalkOn(topo, info, info.Children, u0, 2*d)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ecc.Eval(tau)
		if err != nil {
			t.Fatalf("u0=%d: %v", u0, err)
		}
		want := 0
		for _, v := range tree.SetS(u0, d) {
			if eccs[v] > want {
				want = eccs[v]
			}
		}
		if got != want {
			t.Errorf("u0=%d: max ecc over S = %d, want %d", u0, got, want)
		}
	}
}

func TestWaveMemoryIsLogarithmic(t *testing.T) {
	g := graph.RandomConnected(50, 0.05, 8)
	info, _, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	tau, _, err := TokenWalkOn(mustTopology(t, g), info, info.Children, info.Leader, 2*(g.N()-1))
	if err != nil {
		t.Fatal(err)
	}
	duration := 4*(g.N()-1) + 2*info.D + 2
	nw, err := NewNetwork(g, func(v int) Node { return NewWaveNode(tau[v] >= 0, tau[v], duration) })
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(duration + 4); err != nil {
		t.Fatal(err)
	}
	// Four machine words: tv, dv, one buffered (tau, delta) pair.
	if nw.Metrics().MaxStateBits > 4*64 {
		t.Errorf("wave node state %d bits, want <= 256", nw.Metrics().MaxStateBits)
	}
}

// No non-test file of the package declares a map type: per-vertex program
// state is slices and counters, so a session allocates it once and
// iterates it in a fixed order.
func TestNoMapTypesInPackage(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(*ast.MapType); ok {
				t.Errorf("%s: map type in non-test code", fset.Position(n.Pos()))
			}
			return true
		})
	}
}
