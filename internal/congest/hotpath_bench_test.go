package congest

// Microbenchmarks for the wire hot path (DESIGN.md "Wire hot-path
// anatomy"): BenchmarkOutbox times the send half — word-packed encode,
// destination check (a flood's own row, a tree's cached parent position
// and forward-walked children), maxDeg-sized edge ledger, 20-byte staged
// records written in place — and BenchmarkRecv times the receive half —
// chain gathering into a reusable inbox of 24-byte pointer-free Inbound
// records. Both report allocations; TestHotPathSteadyStateAllocs pins the
// steady state at zero.
//
// One benchmark op is one full engine round over the whole graph, so
// ns/op tracks the per-round cost the engines pay; ns/copy divides it by
// the round's staged copies (about 10.3k on the n=1024 fixture), the
// per-message cost of the half.

import (
	"testing"

	"qcongest/internal/graph"
)

// hotPathFixture is a network plus the staging state the engines feed the
// hot path with: the Outbox and the scratch the receive half reuses.
type hotPathFixture struct {
	nw    *Network
	topo  *Topology
	ob    *Outbox
	inbox []Inbound
	round int

	// The BFS tree of the tree rounds (set by buildTree): each vertex's
	// parent's position in its neighbor row (-1 at the root) and children.
	parentAt []int
	info     *PreInfo
}

func newHotPathFixture(tb testing.TB, n int, opts ...Option) *hotPathFixture {
	tb.Helper()
	g := graph.RandomConnected(n, 8.0/float64(n), 7)
	topo, err := NewTopology(g)
	if err != nil {
		tb.Fatal(err)
	}
	nw := NewNetworkOn(topo, func(v int) Node { return NewWaveNode(false, 0, 1) }, opts...)
	return &hotPathFixture{nw: nw, topo: topo, ob: newOutbox(nw)}
}

// stageRound runs one send half: every vertex broadcasts one packed wave
// message to its full neighbor row.
func (f *hotPathFixture) stageRound(tx *msgWave) {
	f.round++
	f.ob.beginRound(f.round)
	for v := 0; v < f.topo.N(); v++ {
		f.ob.begin(v)
		f.ob.Broadcast(f.topo.Neighbors(v), tx)
	}
}

// buildTree computes the BFS tree the tree rounds send along, and each
// vertex's parent position, as SlotConvergecastNode caches it.
func (f *hotPathFixture) buildTree(tb testing.TB) {
	tb.Helper()
	info, _, err := PreprocessOn(f.topo)
	if err != nil {
		tb.Fatal(err)
	}
	f.info = info
	f.parentAt = make([]int, f.topo.N())
	for v := range f.parentAt {
		f.parentAt[v] = -1
		if p := info.Parent[v]; p >= 0 {
			f.parentAt[v] = neighborIndex(f.topo.Neighbors(v), p)
		}
	}
}

// treeRound runs one send half of a tree schedule: every vertex sends one
// packed message to its parent at the parent's row position and
// broadcasts it to its children, an ascending subset of its row.
func (f *hotPathFixture) treeRound(tx *msgWave) {
	f.round++
	f.ob.beginRound(f.round)
	for v := 0; v < f.topo.N(); v++ {
		f.ob.begin(v)
		if p := f.info.Parent[v]; p >= 0 {
			f.ob.putAt(f.parentAt[v], p, tx)
		}
		f.ob.Broadcast(f.info.Children[v], tx)
	}
}

// gatherAll runs one receive half: materialize every vertex's inbox from
// the staged chains, reusing the fixture scratch like the engine does.
func (f *hotPathFixture) gatherAll() int {
	total := 0
	for v := 0; v < f.topo.N(); v++ {
		f.inbox = f.ob.appendChain(v, f.inbox[:0])
		total += len(f.inbox)
	}
	return total
}

// reportPerCopy reports the benchmark's time per staged copy, for rounds
// of `copies` copies each.
func reportPerCopy(b *testing.B, copies int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(copies), "ns/copy")
}

func BenchmarkOutbox(b *testing.B) {
	const n = 1024
	run := func(b *testing.B, stage func(f *hotPathFixture)) {
		f := newHotPathFixture(b, n, WithStrictAccounting())
		f.buildTree(b)
		stage(f) // warm the arena and queue to steady-state capacity
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stage(f)
		}
		b.StopTimer()
		if err := f.ob.err; err != nil {
			b.Fatal(err)
		}
		reportPerCopy(b, f.ob.sent())
	}
	b.Run("packed/broadcast", func(b *testing.B) {
		// msgWave fits one word with its tag: the encode is one writeRaw,
		// with no strict check (its width is derived from its field list).
		tx := &msgWave{Tau: 3, Delta: 5}
		run(b, func(f *hotPathFixture) { f.stageRound(tx) })
	})
	b.Run("packed/tree", func(b *testing.B) {
		// The tree schedules' send half (SlotConvergecastNode): a put to
		// the parent at its cached row position, and a broadcast to the
		// children through the validated path's forward walk.
		tx := &msgWave{Tau: 3, Delta: 5}
		run(b, func(f *hotPathFixture) { f.treeRound(tx) })
	})
	b.Run("generic/broadcast", func(b *testing.B) {
		// RawMessage has a hand-written codec, so it takes the generic
		// MarshalWire path plus the strict DeclaredBits check — the
		// before-side of the packed fast path.
		tx := &RawMessage{Width: 20}
		run(b, func(f *hotPathFixture) {
			f.round++
			f.ob.beginRound(f.round)
			for v := 0; v < f.topo.N(); v++ {
				f.ob.begin(v)
				f.ob.Broadcast(f.topo.Neighbors(v), tx)
			}
		})
	})
}

func BenchmarkRecv(b *testing.B) {
	f := newHotPathFixture(b, 1024, WithStrictAccounting())
	f.stageRound(&msgWave{Tau: 3, Delta: 5})
	copies := f.gatherAll()
	if copies == 0 {
		b.Fatal("no messages staged")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.gatherAll()
	}
	b.StopTimer()
	reportPerCopy(b, copies)
}

// TestHotPathSteadyStateAllocs pins the hot path at zero steady-state
// allocations: after one warm-up round, staging a full round of packed
// broadcasts and gathering every inbox must not allocate — the regression
// guard for the epoch-stamped ledgers and the reusable receive scratch.
func TestHotPathSteadyStateAllocs(t *testing.T) {
	t.Run("solo", func(t *testing.T) {
		f := newHotPathFixture(t, 256, WithStrictAccounting())
		tx := &msgWave{Tau: 3, Delta: 5}
		f.stageRound(tx)
		f.gatherAll()
		if allocs := testing.AllocsPerRun(10, func() {
			f.stageRound(tx)
			if f.gatherAll() == 0 {
				t.Fatal("no messages delivered")
			}
		}); allocs != 0 {
			t.Errorf("steady-state round: %v allocs per run, want 0", allocs)
		}
		if f.ob.err != nil {
			t.Fatal(f.ob.err)
		}
	})
	t.Run("tree", func(t *testing.T) {
		f := newHotPathFixture(t, 256, WithStrictAccounting())
		f.buildTree(t)
		tx := &msgWave{Tau: 3, Delta: 5}
		f.treeRound(tx)
		f.gatherAll()
		if allocs := testing.AllocsPerRun(10, func() {
			f.treeRound(tx)
			if f.gatherAll() != 2*(f.topo.N()-1) {
				t.Fatal("a tree round must deliver one copy each way on every tree edge")
			}
		}); allocs != 0 {
			t.Errorf("steady-state tree round: %v allocs per run, want 0", allocs)
		}
		if f.ob.err != nil {
			t.Fatal(f.ob.err)
		}
	})
}
