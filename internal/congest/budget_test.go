package congest

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"qcongest/internal/graph"
)

// TestBudgetFitsGOMAXPROCS checks the one CPU budget: Contexts grants
// min(GOMAXPROCS, jobs) contexts, at least one, so the contexts — one
// engine goroutine each — never oversubscribe GOMAXPROCS and never idle a
// CPU a job could use.
func TestBudgetFitsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, jobs := range []int{0, 1, 3, 100} {
			if got, want := Contexts(jobs), max(1, min(procs, jobs)); got != want {
				t.Errorf("GOMAXPROCS=%d: Contexts(%d jobs) = %d, want %d", procs, jobs, got, want)
			}
		}
	}
}

// TestEngineConstructionBytesPerVertex pins the engine's one Env: building
// an engine allocates less per vertex than one Env per vertex alone would
// (only the frontier, outbox and wake tables scale with n).
func TestEngineConstructionBytesPerVertex(t *testing.T) {
	bytes := func(n int) uint64 {
		topo, err := NewTopology(graph.Path(n))
		if err != nil {
			t.Fatal(err)
		}
		nw := NewNetworkOn(topo, func(int) Node { return &floodNode{rounds: 1} })
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e := newEngine(nw)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(e)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := bytes(4096), bytes(16384)
	perVertex := float64(large-small) / (16384 - 4096)
	if env := float64(unsafe.Sizeof(Env{})); perVertex >= env {
		t.Errorf("engine construction costs %.1f B per vertex, want less than one %.0f B Env", perVertex, env)
	}
}

// TestMessageRecordLayout pins the two records every delivered copy passes
// through: the staged queue record at most 20 B, and the Inbound at 24 B
// with no pointer-bearing field, so an inbox scratch is noscan memory and
// writing a record pays no GC write barrier.
func TestMessageRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(Inbound{}); got != 24 {
		t.Errorf("Inbound is %d B, want 24", got)
	}
	if got := unsafe.Sizeof(stagedRec{}); got > 20 {
		t.Errorf("stagedRec is %d B, want at most 20", got)
	}
	var pointers func(typ reflect.Type, path string)
	pointers = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				pointers(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			pointers(typ.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %v: an Inbound must hold no pointer", path, typ.Kind())
		}
	}
	pointers(reflect.TypeOf(Inbound{}), "Inbound")
}
