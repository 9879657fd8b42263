package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON is BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesHarness holds BENCHMARK.json and the harness to
// the same workloads and metrics.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, want)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	largest := 0.0
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", e2e, endToEnd)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, largest)
		}
	}
	var layer []metricDef
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, harness %v", layer, perLayer)
	}
	seen := map[string]bool{}
	for _, n := range append(slices.Clone(names), append(metricNames(e2e), metricNames(layer)...)...) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	return out
}

// layerMap lists, per workload, per-layer metrics its traced run must
// move off zero: the layers each workload exists to exercise.
var layerMap = map[string][]string{
	"diameter-rr256":  {"graph.build_s", "congest.preprocess_s", "congest.eval_ms_p50", "congest.walk_ms_p50", "congest.wave_ms_p50", "congest.ns_per_msg", "query.self_s", "query.eval_calls", "query.distinct_evals", "query.iterations", "query.distinct_ratio"},
	"classical-rr256": {"graph.build_s", "congest.preprocess_s", "classical.walk_s", "classical.wave_s", "classical.convergecast_s", "classical.wave_msgs_per_round", "congest.ns_per_msg"},
	"ecc-path512":     {"congest.preprocess_s", "congest.eval_ms_p50", "congest.eval_ms_tail", "congest.ns_per_round", "congest.dropped_rounds", "query.self_s", "query.eval_calls"},
	"apsp-er256":      {"graph.build_s", "congest.topology_s", "congest.preprocess_rounds", "apsp.first_row_s", "apsp.block_ms_p50", "congest.ns_per_round"},
	"flood-grid512":   {"graph.build_s", "congest.topology_s", "congest.msgs", "congest.bits", "congest.ns_per_msg", "runtime.max_rss_mb"},
}

// TestQuickWorkloads runs every workload at quick sizes, untraced and
// traced: every call must pass its oracle, every traced recomposition must
// reproduce the library result (measure compares them), and every metric
// BENCHMARK.json lists must be emitted.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, spans, err := measure(w, config{seed: 1, trace: traced, sizes: quickSizes, minCalls: 2})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rep.res.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s trace=%v: attempted %d failed %d: %v", w.name, traced, rep.Attempted, rep.Failed, rep.Errors)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if len(spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.name)
				}
				for _, s := range spans {
					if s.Name == "apsp.block" && (s.Parent < 0 || spans[s.Parent].Name != "apsp.sweep") {
						t.Errorf("%s: span %d apsp.block is not a child of apsp.sweep", w.name, s.ID)
					}
				}
				for _, name := range layerMap[w.name] {
					if rep.res.Metrics[name].Value <= 0 {
						t.Errorf("%s: layer metric %s = %v, want > 0", w.name, name, rep.res.Metrics[name].Value)
					}
				}
			}
			if got, want := len(rep.res.Metrics), len(defs); got != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, got, want)
			}
			for _, d := range defs {
				m, ok := rep.res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q", w.name, traced, d.name, m.Unit)
				}
			}
		}
	}
}

// fakeInst returns a different key from its traced path when diverge is
// set, or fails its oracle check when wrong is set.
type fakeInst struct{ diverge, wrong bool }

func (f *fakeInst) prepare() error { return nil }

func (f *fakeInst) call(i int, tr *tracer) (outcome, error) {
	key := i
	if tr != nil && f.diverge {
		key = -1
	}
	return outcome{rounds: 1, key: key}, nil
}

func (f *fakeInst) check(outcome) error {
	if f.wrong {
		return errors.New("wrong answer")
	}
	return nil
}

func TestMismatchesCountAsFailures(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inst   fakeInst
		trace  bool
		failed int
	}{
		{"agree", fakeInst{}, true, 0},
		{"recomposition differs", fakeInst{diverge: true}, true, 2},
		{"oracle disagrees", fakeInst{wrong: true}, false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := tc.inst
			w := workload{name: "fake", setupBatch: 1, setupRounds: 1, panel: 1, setup: func(sizes, int64, *tracer) (instance, error) { return &inst, nil }}
			rep, _, err := measure(w, config{trace: tc.trace, minCalls: 2})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != tc.failed || rep.res.Correct != (tc.failed == 0) {
				t.Errorf("failed %d correct %v, want failed %d", rep.Failed, rep.res.Correct, tc.failed)
			}
		})
	}
}

// TestResultLine checks the command-line contract: the last line of
// standard output is one JSON object with exactly the result keys.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "classical-rr256", "--seed", "2", "--seconds", "0", "--trace", "0", "--quick"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("result keys %v, want %v", keys, want)
	}

	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "classical-rr256", "--trace", "2"},
		{"--cpu", "0"},
	} {
		out.Reset()
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no result", args, code, out.String())
		}
	}
}
