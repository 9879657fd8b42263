package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names a metric and its unit; endToEnd and perLayer mirror
// BENCHMARK.json (the package tests hold them equal).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"call_s", "s"},
	{"alloc_mb", "MB"},
}

var perLayer = []metricDef{
	{"graph.build_s", "s"},
	{"congest.topology_s", "s"},
	{"congest.preprocess_s", "s"},
	{"congest.preprocess_rounds", "count"},
	{"congest.eval_ms_p50", "ms"},
	{"congest.eval_ms_tail", "ms"},
	{"congest.walk_ms_p50", "ms"},
	{"congest.wave_ms_p50", "ms"},
	{"congest.rounds", "count"},
	{"congest.msgs", "count"},
	{"congest.bits", "count"},
	{"congest.dropped_rounds", "count"},
	{"congest.msgs_per_round", "count"},
	{"congest.ns_per_round", "ns"},
	{"congest.ns_per_msg", "ns"},
	{"query.self_s", "s"},
	{"query.eval_calls", "count"},
	{"query.distinct_evals", "count"},
	{"query.iterations", "count"},
	{"query.distinct_ratio", "ratio"},
	{"apsp.first_row_s", "s"},
	{"apsp.oracle_build_s", "s"},
	{"apsp.block_ms_p50", "ms"},
	{"apsp.block_ms_tail", "ms"},
	{"classical.walk_s", "s"},
	{"classical.wave_s", "s"},
	{"classical.convergecast_s", "s"},
	{"classical.wave_msgs_per_round", "count"},
	{"cpu.busy_ratio", "ratio"},
	{"cpu.idle_s", "s"},
	{"runtime.max_rss_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"call.rounds", "count"},
	{"call.wall_s", "s"},
	{"trace.overhead", "ratio"},
}

type config struct {
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	minCalls int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the detailed record printed before the result line.
type report struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Commit     string   `json:"commit"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	ErrorRate  float64  `json:"error_rate"`
	Errors     []string `json:"errors,omitempty"`
	// SetupS and CallS are host-adjusted (see refSearch); WallS and RefS
	// are the calls' and the reference searches' plain wall times.
	SetupS  summary  `json:"setup_s"`
	CallS   summary  `json:"call_s"`
	WallS   summary  `json:"wall_s"`
	RefS    summary  `json:"ref_s"`
	TracedS *summary `json:"traced_wall_s,omitempty"`
	Rounds  summary  `json:"rounds"`
	// CallSamples and RefSamples are the library calls' wall times in
	// order and the reference search timed just before each, for paired
	// comparisons across commits.
	CallSamples []float64 `json:"call_samples"`
	RefSamples  []float64 `json:"ref_samples"`

	res result
}

// usage is a snapshot of the process counters that the per-call metrics
// difference around one library call.
type usage struct {
	cpu                    time.Duration
	alloc, mallocs, cycles uint64
}

func sampleUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   s[0].Value.Uint64(),
		mallocs: s[1].Value.Uint64(),
		cycles:  s[2].Value.Uint64(),
	}
}

// peakRSSMB is the process's peak resident set (VmHWM), which unlike
// getrusage's maximum does not carry over the image run.sh exec'd from.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// runner holds one workload run's samples.
type runner struct {
	panel []instance
	ref   *refSearch
	tr    *tracer
	rep   *report

	adjusted, wall, refs, traced, rounds []float64
	perCall                              map[string][]float64
}

func (r *runner) fail(err error) {
	r.rep.Failed++
	if len(r.rep.Errors) < 5 {
		r.rep.Errors = append(r.rep.Errors, err.Error())
	}
}

// run makes call i on the panel's input i mod len(panel), timed; with tr
// non-nil it is the traced recomposition. A library call is preceded by a
// reference search. The outcome is checked against the oracle after
// timing.
func (r *runner) run(i int, tr *tracer) (outcome, bool) {
	inst := r.panel[i%len(r.panel)]
	var before usage
	var ref float64
	if tr == nil {
		ref = r.ref.time()
		before = sampleUsage()
	}
	root := -1
	if tr != nil {
		tr.call = i
		root = tr.begin("call")
	}
	start := time.Now()
	o, err := inst.call(i, tr)
	d := time.Since(start).Seconds()
	if tr != nil {
		tr.end(root)
		tr.call = -1
	}
	after := sampleUsage()
	r.rep.Attempted++
	if err == nil {
		err = inst.check(o)
	}
	if err != nil {
		r.fail(fmt.Errorf("call %d: %w", i, err))
		return o, false
	}
	o.out = nil // checked; let a large output go before the next call
	if tr != nil {
		r.traced = append(r.traced, d)
		return o, true
	}
	r.wall = append(r.wall, d)
	r.refs = append(r.refs, ref)
	r.adjusted = append(r.adjusted, d/ref*refNominal)
	r.rounds = append(r.rounds, float64(o.rounds))
	procs := float64(runtime.GOMAXPROCS(0))
	cpu := (after.cpu - before.cpu).Seconds()
	for name, v := range map[string]float64{
		"alloc_mb":          float64(after.alloc-before.alloc) / (1 << 20),
		"cpu.busy_ratio":    cpu / (d * procs),
		"cpu.idle_s":        d*procs - cpu,
		"runtime.mallocs":   float64(after.mallocs - before.mallocs),
		"runtime.gc_cycles": float64(after.cycles - before.cycles),
	} {
		r.perCall[name] = append(r.perCall[name], v)
	}
	return o, true
}

// measure runs one workload: the timed setup rounds, the panel of inputs
// built from cfg.seed and their oracles, then closed-loop calls for
// cfg.seconds (at least cfg.minCalls). A traced run alternates library and
// traced calls with the same index, so each recomposition is checked
// against the library result it must reproduce and the pair gives the
// tracing overhead.
func measure(w workload, cfg config) (*report, []span, error) {
	rep := &report{
		Workload:   w.name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit(),
	}
	r := &runner{ref: newRefSearch(refSide), rep: rep, perCall: map[string][]float64{}}
	if cfg.trace {
		r.tr = newTracer()
	}

	// Each setup round is host-adjusted by a reference search just before
	// it, as the calls are.
	var setupTimes []float64
	for k := 0; k < w.setupRounds; k++ {
		runtime.GC()
		ref := r.ref.time()
		start := time.Now()
		for j := range w.setupBatch {
			if _, err := w.setup(cfg.sizes, derive(panelSeed, streamGraph, uint64(j)), r.tr); err != nil {
				return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
			}
		}
		batch := time.Since(start).Seconds() / float64(w.setupBatch)
		setupTimes = append(setupTimes, batch/ref*refNominal)
	}
	runtime.GC()
	for j := range w.panel {
		inst, err := w.setup(cfg.sizes, derive(cfg.seed, streamGraph, uint64(j)), r.tr)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		if err := inst.prepare(); err != nil {
			return nil, nil, fmt.Errorf("%s: oracle: %w", w.name, err)
		}
		r.panel = append(r.panel, inst)
	}
	runtime.GC()

	start := time.Now()
	for i := 0; i < cfg.minCalls || time.Since(start).Seconds() < cfg.seconds; i++ {
		if !cfg.trace {
			r.run(i, nil)
			continue
		}
		// Alternate which side of the pair runs first, so drift during the
		// run does not bias the overhead.
		var plain, traced outcome
		var okPlain, okTraced bool
		if i%2 == 0 {
			plain, okPlain = r.run(i, nil)
			traced, okTraced = r.run(i, r.tr)
		} else {
			traced, okTraced = r.run(i, r.tr)
			plain, okPlain = r.run(i, nil)
		}
		if okPlain && okTraced && !reflect.DeepEqual(plain.key, traced.key) {
			r.fail(fmt.Errorf("call %d: traced recomposition %+v differs from the library result %+v", i, traced.key, plain.key))
		}
	}

	rep.ErrorRate = float64(rep.Failed) / float64(rep.Attempted)
	rep.SetupS = summarize(setupTimes)
	rep.CallS = summarize(r.adjusted)
	rep.WallS = summarize(r.wall)
	rep.RefS = summarize(r.refs)
	rep.CallSamples, rep.RefSamples = r.wall, r.refs
	rep.Rounds = summarize(r.rounds)
	var values map[string]float64
	var defs []metricDef
	if cfg.trace {
		ts := summarize(r.traced)
		rep.TracedS = &ts
		values = r.tr.layers()
		for name, xs := range r.perCall {
			values[name] = median(xs)
		}
		values["runtime.max_rss_mb"] = peakRSSMB()
		values["call.rounds"] = rep.Rounds.Median
		values["call.wall_s"] = rep.WallS.Median
		values["trace.overhead"] = ratio(ts.Median, rep.WallS.Median) - 1
		defs = perLayer
	} else {
		values = map[string]float64{
			"setup_s":  rep.SetupS.Median,
			"call_s":   rep.CallS.IQM,
			"alloc_mb": summarize(r.perCall["alloc_mb"]).IQM,
		}
		defs = endToEnd
	}
	rep.res = result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if r.tr == nil {
		return rep, nil, nil
	}
	return rep, r.tr.spans, nil
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
