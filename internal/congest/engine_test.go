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
// bit-for-bit identical outputs, round counts and Metrics for every worker
// count, and all of them match the retained reference engine. These tests
// exercise the real multi-worker code paths explicitly (the automatic rule
// would pick one worker on small machines and networks).

var engineWorkerCounts = []int{1, 2, 3, 8}

// bfsSnapshot captures every output of one BFS program.
type bfsSnapshot struct {
	Dist, Parent int
	Children     []int
	Ecc          int
}

func runBFS(t *testing.T, g *graph.Graph, root int, run func(*Network, int) error, opts ...Option) ([]bfsSnapshot, Metrics) {
	t.Helper()
	nw, err := NewNetwork(g, func(v int) Node { return NewBFSNode(root) }, opts...)
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
	for seed := int64(1); seed <= 4; seed++ {
		g := graph.RandomConnected(300, 0.02, seed)
		wantOut, wantM := runBFS(t, g, 0, (*Network).RunReference)
		for _, k := range engineWorkerCounts {
			gotOut, gotM := runBFS(t, g, 0, (*Network).Run, WithWorkers(k))
			if !reflect.DeepEqual(gotOut, wantOut) {
				t.Errorf("seed %d workers %d: BFS outputs differ from reference", seed, k)
			}
			if gotM != wantM {
				t.Errorf("seed %d workers %d: Metrics = %+v, want %+v", seed, k, gotM, wantM)
			}
		}
	}
}

func TestEngineDeterministicLeaderElection(t *testing.T) {
	g := graph.RandomConnected(257, 0.03, 9) // odd n: uneven shards
	ref, err := NewNetwork(g, func(v int) Node { return NewLeaderElectNode() })
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunReference(4 * g.N()); err != nil {
		t.Fatal(err)
	}
	for _, k := range engineWorkerCounts {
		nw, err := NewNetwork(g, func(v int) Node { return NewLeaderElectNode() }, WithWorkers(k))
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.Run(4 * g.N()); err != nil {
			t.Fatal(err)
		}
		if nw.Metrics() != ref.Metrics() {
			t.Errorf("workers %d: Metrics = %+v, want %+v", k, nw.Metrics(), ref.Metrics())
		}
		for v := 0; v < g.N(); v++ {
			if nw.Node(v).(*LeaderElectNode).Leader != ref.Node(v).(*LeaderElectNode).Leader {
				t.Fatalf("workers %d: node %d elected a different leader", k, v)
			}
		}
	}
}

func TestEngineDeterministicClassicalExact(t *testing.T) {
	g := graph.RandomConnected(200, 0.025, 5)
	want, err := ClassicalExactDiameter(g, WithWorkers(1))
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
	for _, k := range engineWorkerCounts[1:] {
		got, err := ClassicalExactDiameter(g, WithWorkers(k))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers %d: result %+v, want %+v", k, got, want)
		}
	}
}

func TestEngineDeterministicClassicalApprox(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := graph.RandomConnected(160, 0.04, seed)
		want, err := ClassicalApproxDiameter(g, 0, seed, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range engineWorkerCounts[1:] {
			got, err := ClassicalApproxDiameter(g, 0, seed, WithWorkers(k))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("seed %d workers %d: result %+v, want %+v", seed, k, got, want)
			}
		}
	}
}

// Validation errors must name the same round and edge for every worker
// count: the canonical error is the one at the smallest offending sender.
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
	run := func(k int) string {
		t.Helper()
		nw, err := NewNetwork(g, func(v int) Node { return &duelingHogNode{threshold: 3} }, WithWorkers(k))
		if err != nil {
			t.Fatal(err)
		}
		err = nw.Run(10)
		if err == nil {
			t.Fatal("bandwidth violation not detected")
		}
		return err.Error()
	}
	refNw, err := NewNetwork(g, func(v int) Node { return &duelingHogNode{threshold: 3} })
	if err != nil {
		t.Fatal(err)
	}
	refErr := refNw.RunReference(10)
	if refErr == nil {
		t.Fatal("reference engine missed the violation")
	}
	for _, k := range engineWorkerCounts {
		if got := run(k); got != refErr.Error() {
			t.Errorf("workers %d: error %q, want %q", k, got, refErr.Error())
		}
	}
}

// The observer must see every delivered message in canonical order
// (ascending sender, emission order within a sender) for every worker count.
func TestEngineObserverOrderDeterministic(t *testing.T) {
	g := graph.RandomConnected(150, 0.04, 7)
	trace := func(k int, run func(*Network, int) error) []string {
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
		nw, err := NewNetwork(g, func(v int) Node { return NewLeaderElectNode() }, WithWorkers(k), WithObserver(obs))
		if err != nil {
			t.Fatal(err)
		}
		if err := run(nw, 4*g.N()); err != nil {
			t.Fatal(err)
		}
		return events
	}
	want := trace(1, (*Network).RunReference)
	for _, k := range engineWorkerCounts {
		got := trace(k, (*Network).Run)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d: observer trace differs from reference (%d vs %d events)", k, len(got), len(want))
		}
	}
}

func TestEffectiveWorkersClamps(t *testing.T) {
	g := graph.Path(8)
	nw, err := NewNetwork(g, func(v int) Node { return NewLeaderElectNode() }, WithWorkers(64))
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.EffectiveWorkers(); got != 8 {
		t.Errorf("EffectiveWorkers = %d, want clamp to n = 8", got)
	}
	nw, err = NewNetwork(g, func(v int) Node { return NewLeaderElectNode() })
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.EffectiveWorkers(); got != 1 {
		t.Errorf("EffectiveWorkers = %d, want 1 under the automatic rule on a tiny graph", got)
	}

	// The automatic rule reads GOMAXPROCS. Frontier networks start one
	// worker per 4096-vertex-aligned shard that owns a vertex; dense
	// networks keep the n/64 cap; an explicit count is honoured.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	wave := func(v int) Node { return NewWaveNode(false, 0, 1) }
	small := NewNetworkOn(mustTopology(t, graph.Path(256)), wave)
	large := NewNetworkOn(mustTopology(t, graph.Path(5000)), wave)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if got := small.EffectiveWorkers(); got != 1 {
			t.Errorf("GOMAXPROCS %d: frontier n=256 EffectiveWorkers = %d, want 1", procs, got)
		}
		if got, want := large.EffectiveWorkers(), min(procs, 2); got != want {
			t.Errorf("GOMAXPROCS %d: frontier n=5000 EffectiveWorkers = %d, want %d", procs, got, want)
		}
		explicit := NewNetworkOn(small.topo, wave, WithWorkers(4))
		if got := explicit.EffectiveWorkers(); got != 4 {
			t.Errorf("GOMAXPROCS %d: frontier WithWorkers(4) EffectiveWorkers = %d, want 4", procs, got)
		}
		dense := NewNetworkOn(small.topo, wave, WithScheduler(SchedulerDense))
		if got, want := dense.EffectiveWorkers(), min(procs, 256/minVerticesPerWorker); got != want {
			t.Errorf("GOMAXPROCS %d: dense n=256 EffectiveWorkers = %d, want %d", procs, got, want)
		}
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

// A Session over a frontier network below the shard grain runs serially:
// it starts no worker goroutines, even where the dense rule would start
// several.
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
	s := NewSession(mustTopology(t, g), func(v int) Node { return NewWaveNode(false, 0, duration) })
	defer s.Close()
	for run := 0; run < 2; run++ {
		if err := s.Reset(WaveTau{Tau: tau}); err != nil {
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

// settledGoroutines returns the goroutine count once the workers of
// engines stopped by earlier tests have finished exiting.
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
