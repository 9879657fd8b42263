package congest

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"qcongest/internal/graph"
)

// The engine's central contract: for any fixed input, Run produces
// bit-for-bit identical outputs, round counts and Metrics, and all of them
// match the retained reference engine.

// bfsSnapshot captures every output of one BFS program.
type bfsSnapshot struct {
	Dist, Parent int
	Children     []int
	Ecc          int
}

func runBFS(t *testing.T, g *graph.Graph, root int, run func(*Network, int) error) ([]bfsSnapshot, Metrics) {
	t.Helper()
	nw, err := NewNetwork(g, func(v int) Node { return NewBFSNode(root) })
	if err != nil {
		t.Fatal(err)
	}
	if err := run(nw, 8*g.N()+16); err != nil {
		t.Fatal(err)
	}
	out := make([]bfsSnapshot, g.N())
	for v := 0; v < g.N(); v++ {
		b := nw.Node(v).(*BFSNode)
		out[v] = bfsSnapshot{Dist: b.Dist, Parent: b.Parent, Children: b.Children, Ecc: b.Ecc}
	}
	return out, nw.Metrics()
}

func TestEngineDeterministicBFS(t *testing.T) {
	var graphs []*graph.Graph
	for seed := int64(1); seed <= 4; seed++ {
		graphs = append(graphs, graph.RandomConnected(300, 0.02, seed))
	}
	for gi, g := range graphs {
		wantOut, wantM := runBFS(t, g, 0, (*Network).RunReference)
		gotOut, gotM := runBFS(t, g, 0, (*Network).Run)
		if !reflect.DeepEqual(gotOut, wantOut) {
			t.Errorf("graph %d (n=%d): BFS outputs differ from reference", gi, g.N())
		}
		if gotM != wantM {
			t.Errorf("graph %d (n=%d): Metrics = %+v, want %+v", gi, g.N(), gotM, wantM)
		}
	}
}

func TestEngineDeterministicLeaderElection(t *testing.T) {
	g := graph.RandomConnected(257, 0.03, 9)
	ref, err := NewNetwork(g, func(v int) Node { return NewLeaderElectNode() })
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunReference(4 * g.N()); err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(g, func(v int) Node { return NewLeaderElectNode() })
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(4 * g.N()); err != nil {
		t.Fatal(err)
	}
	if nw.Metrics() != ref.Metrics() {
		t.Errorf("Metrics = %+v, want %+v", nw.Metrics(), ref.Metrics())
	}
	for v := 0; v < g.N(); v++ {
		if nw.Node(v).(*LeaderElectNode).Leader != ref.Node(v).(*LeaderElectNode).Leader {
			t.Fatalf("node %d elected a different leader", v)
		}
	}
}

func TestEngineDeterministicClassicalExact(t *testing.T) {
	g := graph.RandomConnected(200, 0.025, 5)
	want, err := ClassicalExactDiameter(g)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if want.Diameter != truth {
		t.Fatalf("diameter = %d, want %d", want.Diameter, truth)
	}
	got, err := ClassicalExactDiameter(g)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("second run: result %+v, want %+v", got, want)
	}
}

func TestEngineDeterministicClassicalApprox(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := graph.RandomConnected(160, 0.04, seed)
		want, err := ClassicalApproxDiameter(g, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ClassicalApproxDiameter(g, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("seed %d second run: result %+v, want %+v", seed, got, want)
		}
	}
}

// Validation errors must name the same round and edge as RunReference: the
// canonical error is the one at the smallest offending sender.
type duelingHogNode struct {
	threshold int
	tx        RawMessage
}

func (h *duelingHogNode) Send(env *Env, out *Outbox) {
	// From the threshold round on, every node floods oversized messages; the
	// canonical report is always for the smallest sender id.
	if env.Round < h.threshold {
		if len(env.Neighbors) == 0 {
			return
		}
		h.tx.Width = 1
		out.Put(env.Neighbors[0], &h.tx)
		return
	}
	h.tx.Width = 1 << 20
	out.Broadcast(env.Neighbors, &h.tx)
}
func (h *duelingHogNode) Receive(env *Env, inbox []Inbound) {}
func (h *duelingHogNode) Done() bool                        { return false }

func TestEngineDeterministicErrors(t *testing.T) {
	g := graph.RandomConnected(64, 0.1, 3)
	mk := func(v int) Node { return &duelingHogNode{threshold: 3} }
	var errs [2]error
	for i, run := range []func(*Network, int) error{(*Network).RunReference, (*Network).Run} {
		nw, err := NewNetwork(g, mk)
		if err != nil {
			t.Fatal(err)
		}
		if errs[i] = run(nw, 10); errs[i] == nil {
			t.Fatal("bandwidth violation not detected")
		}
	}
	if errs[1].Error() != errs[0].Error() {
		t.Errorf("Run error %q, want RunReference's %q", errs[1], errs[0])
	}
}

// The observer must see every delivered message in canonical order
// (ascending sender, emission order within a sender), as RunReference
// replays it.
func TestEngineObserverOrderDeterministic(t *testing.T) {
	g := graph.RandomConnected(150, 0.04, 7)
	trace := func(run func(*Network, int) error) []string {
		t.Helper()
		var events []string
		obs := func(round, from, to, bits int, wire WireView) {
			if wire.Len() != bits {
				t.Errorf("observer: wire view %d bits, reported %d", wire.Len(), bits)
			}
			// Render the encoded message so the trace compares actual bits.
			var enc []byte
			for i := 0; i < wire.Len(); i++ {
				if wire.Bit(i) {
					enc = append(enc, '1')
				} else {
					enc = append(enc, '0')
				}
			}
			events = append(events, fmt.Sprintf("%d:%d->%d:%d:%s", round, from, to, bits, enc))
		}
		nw, err := NewNetwork(g, func(v int) Node { return NewLeaderElectNode() }, WithObserver(obs))
		if err != nil {
			t.Fatal(err)
		}
		if err := run(nw, 4*g.N()); err != nil {
			t.Fatal(err)
		}
		return events
	}
	want := trace((*Network).RunReference)
	if got := trace((*Network).Run); !reflect.DeepEqual(got, want) {
		t.Errorf("n=%d: observer trace differs from reference (%d vs %d events)", g.N(), len(got), len(want))
	}
}

func mustTopology(t *testing.T, g *graph.Graph) *Topology {
	t.Helper()
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// A Session runs on the goroutine that calls Run: it starts no goroutines,
// whatever GOMAXPROCS is.
func TestSmallFrontierSessionStartsNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g, err := graph.RandomRegular(256, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	tau := make([]int, g.N())
	for v := range tau {
		tau[v] = -1
	}
	tau[0] = 0 // one wave, flooding from vertex 0
	const duration = 64
	before := settledGoroutines()
	s := NewSession(mustTopology(t, g), func(v int) *WaveNode { return NewWaveNode(false, 0, duration) })
	defer s.Close()
	for run := 0; run < 2; run++ {
		for v, w := range s.Nodes() {
			w.InS, w.TauPrime = tau[v] >= 0, tau[v]
		}
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(duration + 4); err != nil {
			t.Fatal(err)
		}
		if d := runtime.NumGoroutine() - before; d > 0 {
			t.Fatalf("run %d: session started %d goroutines, want 0", run, d)
		}
	}
	if s.Metrics().Messages == 0 {
		t.Fatal("wave session delivered no messages")
	}
}

// settledGoroutines returns the goroutine count once the goroutines of
// pools that earlier tests ran have finished exiting.
func settledGoroutines() int {
	n, stable := runtime.NumGoroutine(), 0
	for stable < 5 {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	return n
}
