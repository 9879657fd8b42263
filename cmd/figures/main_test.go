package main

import (
	"strings"
	"testing"
)

// TestCLISmoke drives the run() entry point end to end, asserting the
// per-figure markers and the Figure-2 oracle agreement.
func TestCLISmoke(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := run(nil, &stdout, &stderr); err != nil {
		t.Fatalf("run(): %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"=== Figure 1: BFS(leader) construction in O(D) rounds ===",
		"=== Figure 2: Evaluation procedure (walk + waves + convergecast) ===",
		"=== Lemma 1: coverage of the window sets S(u) ===",
		"=== Figure 4: G_n of Theorem 8 (n = 10, s = 2) ===",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output does not contain %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "u0=") && !strings.Contains(line, "f(u0)=") {
			t.Fatalf("malformed Figure 2 line %q", line)
		}
	}
}

// TestCLIDeterministic asserts the -workers knob produces byte-identical
// output to the default run.
func TestCLIDeterministic(t *testing.T) {
	outputs := make([]string, 0, 3)
	for _, args := range [][]string{
		nil,
		{"-workers", "8"},
		{"-workers", "2"},
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
