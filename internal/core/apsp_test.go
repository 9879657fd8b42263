package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
)

// apspRun executes one full APSP sweep, materializing the emitted rows (the
// tests trade the streaming contract for comparability) and asserting the
// emission order and the reported Sources/Rounds arithmetic.
func apspRun(t *testing.T, g *graph.Graph, opts Options) ([][]int, ApspResult) {
	t.Helper()
	var rows [][]int
	// emit may run on a sweep goroutine, where t.Fatalf must not be called:
	// an order violation aborts the sweep through its error instead.
	res, err := APSP(g, opts, func(source int, row []int) error {
		if source != len(rows) {
			return fmt.Errorf("row %d emitted at position %d (order contract)", source, len(rows))
		}
		rows = append(rows, append([]int(nil), row...))
		return nil
	})
	if err != nil {
		t.Fatalf("APSP: %v", err)
	}
	if res.Sources != g.N() || len(rows) != g.N() {
		t.Fatalf("emitted %d rows, Sources %d, want n = %d", len(rows), res.Sources, g.N())
	}
	if g.N() > 2 && res.Rounds != res.InitRounds+res.Sources*res.EvalRounds {
		t.Fatalf("Rounds %d != InitRounds %d + %d*EvalRounds %d", res.Rounds, res.InitRounds, res.Sources, res.EvalRounds)
	}
	return rows, res
}

// TestApspMatchesOracles cross-checks the quantum APSP sweep against the
// Floyd–Warshall and Dijkstra oracles on the ~50-graph randomized suite,
// and checks that four cloned sessions (Parallel 4) reproduce the
// sequential baseline bit for bit (rows, eccentricities and every measured
// field).
func TestApspMatchesOracles(t *testing.T) {
	strict := []congest.Option{congest.WithStrictAccounting()}
	for _, c := range oracleSuite(t) {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.g.FloydWarshall()
			if err != nil {
				t.Fatal(err)
			}
			rows, res := apspRun(t, c.g, Options{Seed: 42, Parallel: 1, Engine: strict})
			for s := range rows {
				if !reflect.DeepEqual(rows[s], want[s]) {
					t.Fatalf("row %d: %v, want Floyd–Warshall %v", s, rows[s], want[s])
				}
				if dij := c.g.Dijkstra(s); !reflect.DeepEqual(rows[s], dij) {
					t.Fatalf("row %d: %v, want Dijkstra %v", s, rows[s], dij)
				}
			}
			gotRows, got := apspRun(t, c.g, Options{Seed: 42, Parallel: 4, Engine: strict})
			if !reflect.DeepEqual(got, res) {
				t.Fatalf("par4: result %+v, want baseline %+v", got, res)
			}
			if !reflect.DeepEqual(gotRows, rows) {
				t.Fatal("par4: emitted rows differ from baseline")
			}
		})
	}
}

// TestSublinearWeightedMatchesClassical checks the Options.Sublinear
// routing: the skeleton-oracle WeightedDiameter / WeightedRadius /
// Eccentricities values must equal both the classical Bellman–Ford path
// and the sequential graph oracles on every weighted suite graph,
// sequentially and on four cloned sessions.
func TestSublinearWeightedMatchesClassical(t *testing.T) {
	for _, c := range oracleSuite(t) {
		if !c.g.Weighted() {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			wantDiam, err := c.g.WeightedDiameter()
			if err != nil {
				t.Fatal(err)
			}
			wantRad, err := c.g.WeightedRadius()
			if err != nil {
				t.Fatal(err)
			}
			wantEcc, err := c.g.WeightedAllEccentricities()
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []struct {
				name string
				par  int
			}{
				{"seq", 1}, {"par4", 4},
			} {
				opts := Options{
					Seed: 42, Sublinear: true, Parallel: cfg.par,
					Engine: []congest.Option{congest.WithStrictAccounting()},
				}
				diam, err := WeightedDiameter(c.g, opts)
				if err != nil {
					t.Fatalf("%s: WeightedDiameter: %v", cfg.name, err)
				}
				if diam.Diameter != wantDiam {
					t.Fatalf("%s: sublinear diameter %d, want %d", cfg.name, diam.Diameter, wantDiam)
				}
				rad, err := WeightedRadius(c.g, opts)
				if err != nil {
					t.Fatalf("%s: WeightedRadius: %v", cfg.name, err)
				}
				if rad.Diameter != wantRad {
					t.Fatalf("%s: sublinear radius %d, want %d", cfg.name, rad.Diameter, wantRad)
				}
				ecc, err := Eccentricities(c.g, opts)
				if err != nil {
					t.Fatalf("%s: Eccentricities: %v", cfg.name, err)
				}
				if !reflect.DeepEqual(ecc.Ecc, wantEcc) {
					t.Fatalf("%s: sublinear ecc %v, want %v", cfg.name, ecc.Ecc, wantEcc)
				}
			}
			// The classical path must be untouched by the new routing.
			classical, err := WeightedDiameter(c.g, Options{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if classical.Diameter != wantDiam {
				t.Fatalf("classical diameter %d, want %d", classical.Diameter, wantDiam)
			}
		})
	}
}

// TestApspSampledSkeleton exercises the genuinely sublinear regime (n above
// the S = V cutoff, sampled skeleton): the rows stay exact and each
// Evaluation is measurably cheaper than the classical (n-1)-round inner
// loop.
func TestApspSampledSkeleton(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled-skeleton sweep is slow")
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"er/n=150", graph.WithWeights(graph.RandomConnected(150, 0.04, 1), 9, 2)},
		// Trees maximize D, pushing the crossover point of the Θ(sqrt(n log n)
		// + D) Evaluation vs the classical Θ(n) one to larger n.
		{"tree/n=400", graph.WithWeights(graph.RandomTree(400, 3), 7, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.N()
			want, err := tc.g.FloydWarshall()
			if err != nil {
				t.Fatal(err)
			}
			rows, res := apspRun(t, tc.g, Options{Seed: 7})
			for s := range rows {
				if !reflect.DeepEqual(rows[s], want[s]) {
					t.Fatalf("row %d diverges from Floyd–Warshall", s)
				}
			}
			classical, err := Eccentricities(tc.g, Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if res.EvalRounds >= classical.EvalRounds {
				t.Fatalf("skeleton Evaluation costs %d rounds, classical Bellman–Ford %d — not sublinear",
					res.EvalRounds, classical.EvalRounds)
			}
			if !reflect.DeepEqual(res.Ecc, classical.Ecc) {
				t.Fatalf("APSP eccentricities diverge from classical (n=%d)", n)
			}
		})
	}
}

// TestApspDegenerate covers the trivial and invalid inputs of the new
// entry points: n = 0/1/2, a disconnected pair, and the graph layer's
// rejection of zero-weight edges (which therefore never reach APSP).
func TestApspDegenerate(t *testing.T) {
	empty, res := apspRun(t, graph.New(0), Options{})
	if len(empty) != 0 || res.Rounds != 0 {
		t.Fatalf("n=0: rows %v, result %+v", empty, res)
	}
	single, _ := apspRun(t, graph.New(1), Options{})
	if !reflect.DeepEqual(single, [][]int{{0}}) {
		t.Fatalf("n=1: rows %v, want [[0]]", single)
	}
	pair := graph.New(2)
	if err := pair.AddWeightedEdge(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	rows, _ := apspRun(t, pair, Options{})
	if !reflect.DeepEqual(rows, [][]int{{0, 7}, {7, 0}}) {
		t.Fatalf("n=2: rows %v", rows)
	}
	if _, err := APSP(graph.New(2), Options{}, nil); !errors.Is(err, graph.ErrDisconnected) {
		t.Fatalf("disconnected pair: err %v, want ErrDisconnected", err)
	}
	if _, err := APSP(graph.New(5), Options{}, nil); err == nil {
		t.Fatal("disconnected n=5: no error")
	}
	if err := graph.New(3).AddWeightedEdge(0, 1, 0); err == nil {
		t.Fatal("zero-weight edge accepted by the graph layer")
	}
	// Sublinear weighted entry points share the degenerate handling.
	if _, err := WeightedDiameter(graph.New(2), Options{Sublinear: true}); !errors.Is(err, graph.ErrDisconnected) {
		t.Fatalf("sublinear disconnected pair: %v", err)
	}
	if r, err := WeightedRadius(graph.New(1), Options{Sublinear: true}); err != nil || r.Diameter != 0 {
		t.Fatalf("sublinear n=1: (%+v, %v)", r, err)
	}
}

// TestApspEmitContract checks the streaming contract at one, two, three
// and eight cloned sessions: an emit error at source 2 is returned verbatim
// after emit saw exactly sources 0, 1 and 2, and an Evaluation failure
// returns the same error and emits no row whatever Parallel is. At four
// sessions, emits never overlap (an unsynchronized counter the race
// detector watches, and an atomic in-flight flag).
func TestApspEmitContract(t *testing.T) {
	g := graph.WithWeights(graph.RandomConnected(12, 0.2, 5), 6, 5)
	sentinel := errors.New("stop after three rows")
	var evalErr string
	for _, parallel := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("par%d", parallel), func(t *testing.T) {
			var seen []int
			_, err := APSP(g, Options{Parallel: parallel}, func(source int, _ []int) error {
				seen = append(seen, source)
				if source == 2 {
					return sentinel
				}
				return nil
			})
			if err != sentinel {
				t.Fatalf("err %v, want the emit sentinel verbatim", err)
			}
			if !slices.Equal(seen, []int{0, 1, 2}) {
				t.Fatalf("emit saw sources %v, want [0 1 2]", seen)
			}
			emitted := 0
			_, err = APSP(g, Options{Parallel: parallel, Engine: []congest.Option{congest.WithBandwidth(14)}},
				func(int, []int) error { emitted++; return nil })
			switch {
			case err == nil:
				t.Fatal("bandwidth 14: no Evaluation error")
			case evalErr == "":
				evalErr = err.Error()
			case err.Error() != evalErr:
				t.Fatalf("bandwidth 14: error %q, want %q as at Parallel 1", err, evalErr)
			}
			if emitted != 0 {
				t.Fatalf("bandwidth 14: %d rows emitted before the failure, want 0", emitted)
			}
		})
	}
	t.Run("serialized/par4", func(t *testing.T) {
		big := graph.WithWeights(graph.RandomConnected(40, 0.1, 3), 7, 3)
		var inFlight atomic.Bool
		count := 0
		_, err := APSP(big, Options{Parallel: 4}, func(source int, _ []int) error {
			if !inFlight.CompareAndSwap(false, true) {
				return fmt.Errorf("emit of source %d overlaps another emit", source)
			}
			defer inFlight.Store(false)
			if source != count {
				return fmt.Errorf("source %d emitted at position %d", source, count)
			}
			count++
			runtime.Gosched()
			return nil
		})
		if err != nil || count != big.N() {
			t.Fatalf("APSP: %v after %d emits, want %d", err, count, big.N())
		}
	})
}

// TestApspAbortLeaksNoGoroutines aborts the sweep both ways — an emit error
// and an Evaluation error (a bandwidth the preprocessing fits but the
// skeleton relay does not) — with one and with three cloned sessions, and
// once more at three sessions while clones are parked on a full row
// window (emit dawdles on sources 0 and 1, so the window fills again after
// its first advance, then fails on source 1): once APSP
// returns, the goroutine count must be back at its baseline (the pool's
// sweep goroutines have exited).
func TestApspAbortLeaksNoGoroutines(t *testing.T) {
	g := graph.WithWeights(graph.RandomConnected(12, 0.2, 5), 6, 5)
	sentinel := errors.New("stop at source 4")
	stopAt4 := func(source int, _ []int) error {
		if source == 4 {
			return sentinel
		}
		return nil
	}
	type abort struct {
		name     string
		parallel int
		engine   []congest.Option
		emit     func(int, []int) error
		wantErr  func(error) bool
	}
	var cases []abort
	for _, parallel := range []int{1, 3} {
		cases = append(cases,
			abort{"emit", parallel, nil, stopAt4,
				func(err error) bool { return errors.Is(err, sentinel) }},
			abort{"eval", parallel, []congest.Option{congest.WithBandwidth(14)}, nil,
				func(err error) bool { return err != nil && strings.HasPrefix(err.Error(), "apsp: source 0: ") }})
	}
	cases = append(cases, abort{"parked", 3, nil,
		func(source int, _ []int) error {
			if source > 1 {
				return nil
			}
			time.Sleep(20 * time.Millisecond)
			if source == 1 {
				return sentinel
			}
			return nil
		},
		func(err error) bool { return errors.Is(err, sentinel) }})
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/par%d", tc.name, tc.parallel), func(t *testing.T) {
			base := runtime.NumGoroutine()
			_, err := APSP(g, Options{Seed: 1, Parallel: tc.parallel, Engine: tc.engine}, tc.emit)
			if !tc.wantErr(err) {
				t.Fatalf("APSP error %v", err)
			}
			// Stopped goroutines finish exiting asynchronously.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after the abort, %d before:\n%s",
						runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
