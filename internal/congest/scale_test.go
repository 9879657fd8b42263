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
// structs (preallocated here). What remains is the program table, the
// wake and Done arrays, the frontier bitsets and one 8-byte delivery-chain
// head per vertex (33.4 B in all when the bound was set); one more O(n)
// array of 8-byte words, or an n-long interface table, breaks the 36 B
// bound.
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
	if perVertex > 36 {
		t.Errorf("engine allocates %.1f B per vertex, want <= 36", perVertex)
	}
}

// TestCapacity10M is the scale smoke behind ROADMAP item 4: a 10M-vertex
// grid streams into CSR form, becomes a Topology without ever
// materializing a *graph.Graph, and runs 50 frontier rounds of a truncated
// BFS flood whose result is verified against the packed-oracle BFS for
// every vertex. Build time and peak heap are asserted, so a regression
// that reintroduces O(n) per-vertex allocation or frontier bookkeeping
// fails loudly. ~2 GB of memory and tens of seconds, so it is opt-in:
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

	nw := NewNetworkOn(topo, func(v int) Node { return &capFloodNode{deadline: deadline, dist: -1} })
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

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("heap after run: %.2f GB", float64(ms.HeapAlloc)/(1<<30))
	if ms.HeapAlloc > 2<<30 {
		t.Errorf("HeapAlloc = %.2f GB, want <= 2 GB for the 10M capacity envelope",
			float64(ms.HeapAlloc)/(1<<30))
	}
}
