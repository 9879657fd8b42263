package main

import (
	"strings"
	"testing"
)

// TestCLISmoke drives the run() entry point end to end for each parameter,
// asserting the oracle-match markers in the output.
func TestCLISmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{
			"quantum exact",
			[]string{"-graph", "random", "-n", "24", "-algo", "quantum-exact", "-seed", "3"},
			"quantum-exact: diameter=",
		},
		{
			"weighted radius",
			[]string{"-graph", "random", "-n", "20", "-param", "radius", "-weighted", "-maxw", "6"},
			"quantum radius:",
		},
		{
			"apsp",
			[]string{"-graph", "random", "-n", "24", "-param", "apsp", "-weighted"},
			"quantum apsp: n=24 match-oracle=true",
		},
		{
			"apsp unweighted parallel",
			[]string{"-graph", "path", "-n", "16", "-param", "apsp", "-parallel", "2"},
			"quantum apsp: n=16 match-oracle=true",
		},
		{
			"sublinear weighted diameter",
			[]string{"-graph", "random", "-n", "20", "-weighted", "-sublinear"},
			"quantum weighted diameter:",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if err := run(tc.args, &stdout, &stderr); err != nil {
				t.Fatalf("run(%v): %v\nstderr: %s", tc.args, err, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.want) {
				t.Fatalf("run(%v) output %q does not contain %q", tc.args, stdout.String(), tc.want)
			}
		})
	}
}
