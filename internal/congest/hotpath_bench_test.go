package congest

// Microbenchmarks for the wire hot path (DESIGN.md "Wire hot-path
// anatomy"): BenchmarkOutbox times the send half — word-packed encode,
// maxDeg-sized edge ledger, SoA staging — and BenchmarkRecv times the
// receive half — chain gathering into a reusable inbox. Both report
// allocations; TestHotPathSteadyStateAllocs pins the steady state at zero.
//
// One benchmark op is one full engine round over the whole graph, so
// ns/op tracks the per-round cost the engines pay, not a single message.

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

func BenchmarkOutbox(b *testing.B) {
	const n = 1024
	run := func(b *testing.B, stage func(f *hotPathFixture)) {
		f := newHotPathFixture(b, n, WithStrictAccounting())
		stage(f) // warm the arena and queue to steady-state capacity
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stage(f)
		}
		if err := f.ob.err; err != nil {
			b.Fatal(err)
		}
	}
	b.Run("packed/broadcast", func(b *testing.B) {
		// msgWave fits one word with its tag: the encode is one writeRaw,
		// with no strict check (its width is derived from its field list).
		tx := &msgWave{Tau: 3, Delta: 5}
		run(b, func(f *hotPathFixture) { f.stageRound(tx) })
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
	if f.gatherAll() == 0 {
		b.Fatal("no messages staged")
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += f.gatherAll()
	}
	if total == 0 {
		b.Fatal("no messages delivered")
	}
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
}
