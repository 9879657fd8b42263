package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"qcongest/internal/graph"
)

// goldenEntries maps the golden matrix's entry names to the entry points.
var goldenEntries = map[string]func(*graph.Graph, Options) (Result, error){
	"simple":  ExactDiameterSimple,
	"exact":   ExactDiameter,
	"approx":  ApproxDiameter,
	"radius":  Radius,
	"wdiam":   WeightedDiameter,
	"wradius": WeightedRadius,
}

// TestDefaultBudgetMatchesSequential runs every entry point with the zero
// Options — the automatic CPU budget, which clones up to GOMAXPROCS
// evaluation contexts — under GOMAXPROCS 1, 2 and 4, and requires the
// sequential (Parallel: 1) outcome bit for bit: the golden Results, and
// for the workloads and APSP a sequential run on the same input.
func TestDefaultBudgetMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	graphs := map[string]*graph.Graph{}
	for _, gc := range goldenGraphs() {
		graphs[gc.name] = gc.g
	}
	// The workloads' outcomes, sequential and automatic, as comparable values.
	workloads := func(g *graph.Graph, opts Options) (any, error) {
		det, err := TriangleDetect(g, opts)
		if err != nil {
			return nil, err
		}
		cnt, err := TriangleCount(g, opts)
		if err != nil {
			return nil, err
		}
		cut, err := MinTreeCut(g, opts)
		if err != nil {
			return nil, err
		}
		var rows [][]int
		apsp, err := APSP(g, opts, func(_ int, row []int) error {
			rows = append(rows, append([]int(nil), row...))
			return nil
		})
		return fmt.Sprintf("%+v %+v %+v %+v %v", det, cnt, cut, apsp, rows), err
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range goldenCases {
			got, err := goldenEntries[tc.entry](graphs[tc.graph], Options{Seed: tc.seed})
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d %s/%s/seed=%d: %v", procs, tc.graph, tc.entry, tc.seed, err)
			}
			if got != tc.want {
				t.Errorf("GOMAXPROCS=%d %s/%s/seed=%d: default %+v, sequential golden %+v",
					procs, tc.graph, tc.entry, tc.seed, got, tc.want)
			}
		}
		for _, tc := range goldenEccCases {
			got, err := Eccentricities(graphs[tc.graph], Options{Seed: tc.seed})
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d %s/ecc/seed=%d: %v", procs, tc.graph, tc.seed, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("GOMAXPROCS=%d %s/ecc/seed=%d: default %+v, sequential golden %+v", procs, tc.graph, tc.seed, got, tc.want)
			}
		}
		for _, gc := range goldenGraphs() {
			want, err := workloads(gc.g, Options{Seed: 3, Parallel: 1})
			if err != nil {
				t.Fatalf("%s sequential: %v", gc.name, err)
			}
			got, err := workloads(gc.g, Options{Seed: 3})
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d %s: %v", procs, gc.name, err)
			}
			if got != want {
				t.Errorf("GOMAXPROCS=%d %s workloads:\ndefault    %v\nsequential %v", procs, gc.name, got, want)
			}
		}
	}
}
