package congest

import (
	"runtime"
	"testing"
	"unsafe"

	"qcongest/internal/graph"
)

// TestBudgetFitsGOMAXPROCS checks the one CPU budget: under the automatic
// worker rule, the engine's workers times the cloned contexts Contexts
// grants beside them never exceed GOMAXPROCS, small networks get one worker
// and a context per CPU, and a network with a shard per CPU gets every CPU
// as a worker and a single context.
func TestBudgetFitsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{256, 4096, 8193, 70000} {
		topo, err := NewTopology(graph.Path(n))
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			workers := topo.EngineWorkers()
			contexts := Contexts(workers, n)
			if workers*contexts > procs {
				t.Errorf("n=%d GOMAXPROCS=%d: %d workers x %d contexts oversubscribe", n, procs, workers, contexts)
			}
			if n <= 4096 && (workers != 1 || contexts != procs) {
				t.Errorf("n=%d GOMAXPROCS=%d: %d workers x %d contexts, want 1 x %d", n, procs, workers, contexts, procs)
			}
			if n == 70000 && (workers != procs || contexts != 1) {
				t.Errorf("n=%d GOMAXPROCS=%d: %d workers x %d contexts, want %d x 1", n, procs, workers, contexts, procs)
			}
		}
	}
	runtime.GOMAXPROCS(4)
	if got := Contexts(1, 3); got != 3 {
		t.Errorf("Contexts(1, 3 jobs) = %d, want the job count 3", got)
	}
	if got := Contexts(8, 100); got != 1 {
		t.Errorf("Contexts(8 workers, 100) = %d, want 1 when the workers alone exceed the budget", got)
	}
	topo, err := NewTopology(graph.Path(4096))
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.EngineWorkers(WithWorkers(3)); got != 3 {
		t.Errorf("EngineWorkers(WithWorkers(3)) = %d, want the explicit 3", got)
	}
}

// TestEngineConstructionBytesPerVertex pins the per-worker Env: building an
// engine allocates less per vertex than one Env per vertex alone would
// (only the frontier, outbox and wake tables scale with n).
func TestEngineConstructionBytesPerVertex(t *testing.T) {
	bytes := func(n int) uint64 {
		topo, err := NewTopology(graph.Path(n))
		if err != nil {
			t.Fatal(err)
		}
		nw := NewNetworkOn(topo, func(int) Node { return &floodNode{rounds: 1} }, WithWorkers(1))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e := newEngine(nw)
		runtime.ReadMemStats(&after)
		e.stop()
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := bytes(4096), bytes(16384)
	perVertex := float64(large-small) / (16384 - 4096)
	if env := float64(unsafe.Sizeof(Env{})); perVertex >= env {
		t.Errorf("engine construction costs %.1f B per vertex, want less than one %.0f B Env", perVertex, env)
	}
}
