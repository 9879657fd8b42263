"""Calibrates the benchmark's bounds. Run from the root of the repository:

    python3 bench/calibrate.py

It runs the BENCHMARK.json command (tracing off) ten times on every
workload, each run with its own seed, and does that twice: the first set
with seeds 1-10, the second, after the first has finished on every
workload, with seeds 11-20. For each end-to-end metric it reports the
median, the quartiles and the spread (q3 - q1) / median of the ten values,
and how far the second set's median moved from the first's. The report
goes to bench/calibration.json.

It exits 1 when a run fails, when a spread exceeds a third of the metric's
bound, or when the second set's median is worse than the first's by more
than the bound.
"""

import json
import os
import statistics
import subprocess
import sys

RUNS = 10
SETS = 2
OUT = "bench/calibration.json"


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {res}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    sets = {name: [] for name in names}
    for s in range(SETS):
        for name in names:
            seeds = range(1 + s * RUNS, 1 + (s + 1) * RUNS)
            runs = [run_once(bench, name, seed) for seed in seeds]
            sets[name].append({m: describe([r[m] for r in runs]) for m in specs})
            print(f"set {s + 1} {name} done", flush=True)

    ok = True
    for name in names:
        first, second = sets[name]
        for m, spec in specs.items():
            move = second[m]["median"] / first[m]["median"] - 1
            if spec["better"] == "higher":
                move = -move
            line = (f"{name:18} {m:10} median {first[m]['median']:.6g}"
                    f" spread {first[m]['spread']:.4f} / {second[m]['spread']:.4f}"
                    f" move {move:+.4f} bound {spec['bound']}")
            if max(first[m]["spread"], second[m]["spread"]) > spec["bound"] / 3:
                ok, line = False, line + "  SPREAD OVER A THIRD OF THE BOUND"
            if move > spec["bound"]:
                ok, line = False, line + "  MOVE OVER BOUND"
            print(line)

    report = {"cpus": os.cpu_count(), "run_seconds": bench["run_seconds"], "runs": RUNS,
              "bounds": {m: spec["bound"] for m, spec in specs.items()}, "ok": ok,
              "workloads": sets}
    with open(OUT, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
