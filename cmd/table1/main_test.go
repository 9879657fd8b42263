package main

import (
	"strings"
	"testing"
)

// TestCLISmoke drives the run() entry point end to end, asserting the
// section markers and the ok columns of the rendered tables.
func TestCLISmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{
			"default sweep",
			[]string{"-trials", "1"},
			[]string{"=== Table 1, row 'Exact computation' ===", "quantum exact (Theorem 1)", "classical slope vs n:"},
		},
		{
			// -parallel runs the trials on two workers (congest.ForEach).
			"workers parallel",
			[]string{"-trials", "1", "-parallel", "2"},
			[]string{"quantum exact (Theorem 1)", "=== Table 1, row '3/2-approximation' ==="},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if err := run(tc.args, &stdout, &stderr); err != nil {
				t.Fatalf("run(%v): %v\nstderr: %s", tc.args, err, stderr.String())
			}
			for _, want := range tc.want {
				if !strings.Contains(stdout.String(), want) {
					t.Fatalf("run(%v) output does not contain %q:\n%s", tc.args, want, stdout.String())
				}
			}
			if strings.Contains(stdout.String(), "false") {
				t.Fatalf("run(%v) reports a failed measurement:\n%s", tc.args, stdout.String())
			}
		})
	}
}

// TestCLIDeterministic asserts the -parallel knob never changes the
// measured tables: concurrency is a wall-clock lever, not semantics.
func TestCLIDeterministic(t *testing.T) {
	outputs := make([]string, 0, 2)
	for _, args := range [][]string{
		{"-trials", "1"},
		{"-trials", "1", "-parallel", "2"},
	} {
		var stdout, stderr strings.Builder
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
		}
		outputs = append(outputs, stdout.String())
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Errorf("output %d differs from baseline:\n%s\nvs\n%s", i, outputs[i], outputs[0])
		}
	}
}

// TestCLIRejectsTrialsBelowOne: -trials 0 and -trials -1 are errors, not
// panics.
func TestCLIRejectsTrialsBelowOne(t *testing.T) {
	for _, trials := range []string{"0", "-1"} {
		var stdout, stderr strings.Builder
		if err := run([]string{"-trials", trials}, &stdout, &stderr); err == nil {
			t.Errorf("-trials %s accepted", trials)
		}
	}
}
