// Command bench is the repository's benchmark: closed-loop workloads over
// the quantum diameter, its classical baseline, eccentricities, quantum
// APSP and a grid flood, each call checked against a sequential
// oracle. With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// runs the same calls through a recomposition of the layers' exported
// functions with spans around each layer and prints the per-layer metrics.
//
//	bash bench/run.sh --workload diameter-rr256 --seed 1 --seconds 20 --trace 0
//	cd bench && go run .    # every workload, each in a fresh child process
//
// See README.md for the workloads, the metrics and how to compare commits.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed every graph and query seed derives from")
	seconds := fs.Float64("seconds", 20, "how long to repeat calls")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	traceOut := fs.String("trace-out", "", "write the traced run's spans to this JSON file")
	cpu := fs.Int("cpu", min(runtime.NumCPU(), 2), "GOMAXPROCS")
	quick := fs.Bool("quick", false, "small inputs, for a smoke run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if *cpu < 1 {
		fmt.Fprintf(stderr, "bench: -cpu must be positive, not %d\n", *cpu)
		return 2
	}
	if *name == "" {
		common := []string{"-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(*trace), "-cpu", strconv.Itoa(*cpu), "-quick=" + strconv.FormatBool(*quick)}
		return runAll(common, *traceOut, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	runtime.GOMAXPROCS(*cpu)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, sizes: fullSizes, minCalls: 3}
	if *quick {
		cfg.sizes = quickSizes
	}
	rep, spans, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *traceOut != "" {
		if err := writeSpans(*traceOut, rep, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	for _, v := range []any{rep, rep.res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !rep.res.Correct {
		return 1
	}
	return 0
}

func writeSpans(path string, rep *report, spans []span) error {
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{rep.Workload, rep.Seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// runAll runs every workload in a fresh child process with the common
// flags and prints the children's lines, then one result line whose
// metrics are keyed workload/metric.
func runAll(common []string, traceOut string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range workloads {
		childArgs := append([]string{"-workload", w.name}, common...)
		if traceOut != "" {
			childArgs = append(childArgs, "-trace-out", strings.TrimSuffix(traceOut, ".json")+"-"+w.name+".json")
		}
		cmd := exec.Command(exe, childArgs...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		stdout.Write(out)
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err != nil || json.Unmarshal(lines[len(lines)-1], &res) != nil {
			fmt.Fprintf(stderr, "bench: workload %s failed: %v\n", w.name, err)
			all.Correct, code = false, 1
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	line, _ := json.Marshal(all) // plain data: cannot fail
	fmt.Fprintf(stdout, "%s\n", line)
	if !all.Correct {
		code = 1
	}
	return code
}
