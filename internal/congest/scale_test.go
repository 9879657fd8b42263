package congest

import (
	"os"
	"runtime"
	"testing"
	"time"

	"qcongest/internal/graph"
)

// capFloodNode is the 10M-vertex capacity workload: a BFS wave from the
// corner, truncated at a deadline round so the test exercises frontier
// growth, a bulk timer wake (every unreached vertex fires at the deadline
// — the worst case for wake-bucket drains) and clean quiescence, without
// paying for the full ~6300-round flood.
type capFloodNode struct {
	deadline int
	dist     int // -1 until reached
	pend     bool
	done     bool
	tx, rx   msgActivate
	liveHeap *uint64 // when set, the deadline round's Receive stores the live heap here
}

func (f *capFloodNode) Send(env *Env, out *Outbox) {
	if env.Round > f.deadline {
		return
	}
	if env.ID == 0 && f.dist == -1 {
		f.dist = 0
		f.pend = true
	}
	if !f.pend {
		return
	}
	f.pend = false
	f.tx.Dist = f.dist + 1
	out.Broadcast(env.Neighbors, &f.tx)
}

func (f *capFloodNode) Receive(env *Env, inbox []Inbound) {
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != KindActivate || in.Decode(env, &f.rx) != nil {
			continue
		}
		if f.dist == -1 || f.rx.Dist < f.dist {
			f.dist = f.rx.Dist
			f.pend = true
		}
	}
	if env.Round >= f.deadline {
		f.pend = false
		f.done = true
	}
	if f.liveHeap != nil && env.Round == f.deadline {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		*f.liveHeap = ms.HeapAlloc
	}
}

func (f *capFloodNode) Done() bool     { return f.done }
func (f *capFloodNode) StateBits() int { return 3 * 64 }
func (f *capFloodNode) NextWake(env *Env, round int) int {
	if f.done {
		return NeverWake
	}
	if env.ID == 0 && f.dist == -1 {
		return 1
	}
	if f.pend {
		return round + 1
	}
	return f.deadline // deadline timer: everyone quiesces together
}

// TestEngineFootprintPerVertex pins the engine's per-vertex bookkeeping:
// the heap bytes NewNetworkOn plus a one-round Run (the capacity flood cut
// at round 1) allocate on a 256x256 grid, excluding the node program
// structs (preallocated here). What remains is 16 B of program table, a
// 4-byte delivery-chain tail, a 4-byte wake round, one Done bit and about
// 0.4 B of frontier bitsets per vertex (24.5 B in all when the bound was
// set); one more O(n) array of 4-byte words, or an n-long interface
// table, breaks the 27 B bound.
func TestEngineFootprintPerVertex(t *testing.T) {
	const side = 256
	c, err := graph.BuildCSRFromStream(side*side, graph.GridEdges(side, side))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewTopologyFromCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	n := topo.N()
	progs := make([]capFloodNode, n)
	for v := range progs {
		progs[v] = capFloodNode{deadline: 1, dist: -1}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	nw := NewNetworkOn(topo, func(v int) Node { return &progs[v] })
	if err := nw.Run(4); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if r := nw.Metrics().Rounds; r != 1 {
		t.Fatalf("Rounds = %d, want 1", r)
	}
	perVertex := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%.1f B per vertex", perVertex)
	if perVertex > 27 {
		t.Errorf("engine allocates %.1f B per vertex, want <= 27", perVertex)
	}
}

// TestTopologyFootprintPerVertex pins the heap bytes a Topology build
// allocates per vertex, excluding its input. On a 256x256 grid,
// NewTopologyFromCSR allocates the int neighbor arena (2m/n ≈ 3.98 words,
// 31.9 B) plus 4 B of int32 scratch (the symmetry cursors, reused as the
// connectivity BFS queue) and a visited bitset: 36.0 B when the bound was
// set. On a weighted RandomConnected(4096, 8/4096) (2m/n ≈ 9.96),
// NewTopology allocates the neighbor and weight arenas (79.7 B each), the
// int32 offsets and the BFS queue: 168.6 B. One more per-vertex slice
// header or int32 array breaks either bound.
func TestTopologyFootprintPerVertex(t *testing.T) {
	const side = 256
	c, err := graph.BuildCSRFromStream(side*side, graph.GridEdges(side, side))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.WithWeights(graph.RandomConnected(4096, 8.0/4096, 1), 100, 2)
	g.Neighbors(0) // sort the adjacency outside the measurement
	for _, tc := range []struct {
		name  string
		n     int
		build func() (*Topology, error)
		bound float64
	}{
		{"csr-grid", c.N(), func() (*Topology, error) { return NewTopologyFromCSR(c) }, 38},
		{"graph-weighted", g.N(), func() (*Topology, error) { return NewTopology(g) }, 172},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := tc.build(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perVertex := float64(after.TotalAlloc-before.TotalAlloc) / float64(tc.n)
		t.Logf("%s: %.1f B per vertex", tc.name, perVertex)
		if perVertex > tc.bound {
			t.Errorf("%s: topology allocates %.1f B per vertex, want <= %.0f", tc.name, perVertex, tc.bound)
		}
	}
}

// TestCapacity10M is the scale smoke behind ROADMAP item 4: a 10M-vertex
// grid streams into CSR form, becomes a Topology without ever
// materializing a *graph.Graph, and runs 50 frontier rounds of a truncated
// BFS flood whose result is verified against the packed-oracle BFS for
// every vertex. Build time and the live heap are asserted, so a regression
// that reintroduces O(n) per-vertex allocation or frontier bookkeeping
// fails loudly. The heap is sampled after a GC inside the deadline round,
// while the engine is still in use: 1.09 GB when the 1.2 GB ceiling was
// set. The process peaks at about 1.3 GB RSS, so it is opt-in:
//
//	QCONGEST_CAPACITY_10M=1 go test -run TestCapacity10M -timeout 20m ./internal/congest
func TestCapacity10M(t *testing.T) {
	if os.Getenv("QCONGEST_CAPACITY_10M") == "" {
		t.Skip("set QCONGEST_CAPACITY_10M=1 to run the 10M-vertex capacity test")
	}
	const (
		side     = 3163 // 3163^2 = 10,004,569 vertices
		deadline = 50
	)
	n := side * side

	start := time.Now()
	c, err := graph.BuildCSRFromStream(n, graph.GridEdges(side, side))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewTopologyFromCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	buildT := time.Since(start)
	t.Logf("built %d-vertex topology in %v", n, buildT)
	if buildT > 30*time.Second {
		t.Errorf("topology build took %v, want <= 30s", buildT)
	}

	dist := make([]int32, n)
	queue := make([]int32, n)
	if reached, _ := c.BFSInto(0, dist, queue); reached != n {
		t.Fatalf("oracle BFS reached %d of %d vertices", reached, n)
	}

	// Vertex 0 waits on the deadline timer like every other vertex, so it
	// executes in the last round, while the engine, the topology, the
	// programs and the oracle's arrays are all live.
	var liveHeap uint64
	nw := NewNetworkOn(topo, func(v int) Node { return &capFloodNode{deadline: deadline, dist: -1} })
	nw.Node(0).(*capFloodNode).liveHeap = &liveHeap
	start = time.Now()
	if err := nw.Run(deadline + 8); err != nil {
		t.Fatal(err)
	}
	runT := time.Since(start)
	m := nw.Metrics()
	t.Logf("flood: rounds=%d messages=%d in %v (%.0f rounds/s)",
		m.Rounds, m.Messages, runT, float64(m.Rounds)/runT.Seconds())
	if m.Rounds != deadline {
		t.Errorf("Rounds = %d, want %d (deadline quiescence)", m.Rounds, deadline)
	}

	// Every vertex the oracle puts within the deadline must have learned
	// its exact distance; everything beyond must still be unreached.
	bad := 0
	for v := 0; v < n; v++ {
		f := nw.Node(v).(*capFloodNode)
		want := int(dist[v])
		if want > deadline {
			want = -1
		}
		if f.dist != want {
			bad++
		}
	}
	if bad != 0 {
		t.Fatalf("truncated flood disagrees with the oracle at %d vertices", bad)
	}

	t.Logf("live heap in the deadline round: %.2f GB", float64(liveHeap)/(1<<30))
	if liveHeap == 0 || liveHeap > 6<<30/5 {
		t.Errorf("live heap in the deadline round = %.2f GB, want sampled and <= 1.2 GB",
			float64(liveHeap)/(1<<30))
	}
}
