package main

import (
	"time"

	"qcongest/internal/congest"
)

// span is one timed region of a traced run, recorded by the benchmark
// around a call into one layer's exported functions.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Call   int    `json:"call"`   // traced call index; -1 during setup
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the run started
	End    int64  `json:"end"`
	// Counts from the congest.Metrics the spanned call returned.
	Rounds  int `json:"rounds,omitempty"`
	Msgs    int `json:"msgs,omitempty"`
	Bits    int `json:"bits,omitempty"`
	Dropped int `json:"dropped_rounds,omitempty"`
	// Engine marks a span that executes CONGEST rounds; the congest.*
	// engine totals of a call add up its engine spans.
	Engine bool `json:"engine,omitempty"`
}

// tracer keeps the spans of one traced run in memory. The benchmark drives
// every traced call from one goroutine, so it needs no locking. All
// methods are no-ops on a nil tracer, which is how untraced code paths
// share setup code with traced ones.
type tracer struct {
	t0    time.Time
	spans []span
	open  int // innermost open span, -1 when none
	call  int
	// values holds per-call layer values that are not span durations
	// (query counters, APSP phase estimates), one entry per traced call.
	values map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: -1, call: -1, values: map[string][]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.open, Call: t.call, Name: name, Start: t.now()})
	t.open = id
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = t.now()
	t.open = s.Parent
}

// endCounts closes a span and attaches the counts of m.
func (t *tracer) endCounts(id int, m congest.Metrics) {
	if t == nil {
		return
	}
	t.end(id)
	s := &t.spans[id]
	s.Rounds, s.Msgs, s.Bits, s.Dropped = m.Rounds, m.Messages, m.Bits, m.DroppedRounds
}

// endEngine closes a span that executed CONGEST rounds.
func (t *tracer) endEngine(id int, m congest.Metrics) {
	if t == nil {
		return
	}
	t.endCounts(id, m)
	t.spans[id].Engine = true
}

// add records an already finished interval as a child of the innermost
// open span (used for intervals inferred from callback timestamps).
func (t *tracer) add(name string, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: t.open, Call: t.call, Name: name, Start: start, End: end})
}

func (t *tracer) value(name string, v float64) {
	if t == nil {
		return
	}
	t.values[name] = append(t.values[name], v)
}

// layers reduces the spans and values of a traced run to per-layer
// metrics: medians over spans of a name, or over traced calls for
// per-call totals. A layer the workload never enters reads 0.
func (t *tracer) layers() map[string]float64 {
	secs := map[string][]float64{}
	children := map[int][]interval{}
	type totals struct {
		ns                          int64
		rounds, msgs, bits, dropped int
	}
	perCall := map[int]*totals{}
	var preRounds, waveMsgsPerRound, querySelf []float64
	for _, s := range t.spans {
		secs[s.Name] = append(secs[s.Name], float64(s.End-s.Start)/1e9)
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
		switch s.Name {
		case "congest.preprocess":
			preRounds = append(preRounds, float64(s.Rounds))
		case "classical.wave":
			waveMsgsPerRound = append(waveMsgsPerRound, ratio(float64(s.Msgs), float64(s.Rounds)))
		}
		if s.Engine && s.Call >= 0 {
			c := perCall[s.Call]
			if c == nil {
				c = &totals{}
				perCall[s.Call] = c
			}
			c.ns += s.End - s.Start
			c.rounds += s.Rounds
			c.msgs += s.Msgs
			c.bits += s.Bits
			c.dropped += s.Dropped
		}
	}
	for _, s := range t.spans {
		if s.Name == "query.maximum" || s.Name == "query.evalall" {
			querySelf = append(querySelf, float64(selfTime(interval{s.Start, s.End}, children[s.ID]))/1e9)
		}
	}
	var rounds, msgs, bits, dropped, msgsPerRound, nsPerRound, nsPerMsg []float64
	for _, c := range perCall {
		rounds = append(rounds, float64(c.rounds))
		msgs = append(msgs, float64(c.msgs))
		bits = append(bits, float64(c.bits))
		dropped = append(dropped, float64(c.dropped))
		msgsPerRound = append(msgsPerRound, ratio(float64(c.msgs), float64(c.rounds)))
		nsPerRound = append(nsPerRound, ratio(float64(c.ns), float64(c.rounds)))
		nsPerMsg = append(nsPerMsg, ratio(float64(c.ns), float64(c.msgs)))
	}
	ms := func(name string) summary { return summarize(scale(secs[name], 1e3)) }
	eval, block := ms("congest.eval"), ms("apsp.block")
	return map[string]float64{
		"graph.build_s":                 median(secs["graph.build"]),
		"congest.topology_s":            median(secs["congest.topology"]),
		"congest.preprocess_s":          median(secs["congest.preprocess"]),
		"congest.preprocess_rounds":     median(preRounds),
		"congest.eval_ms_p50":           eval.Median,
		"congest.eval_ms_tail":          eval.Tail,
		"congest.walk_ms_p50":           ms("congest.walk").Median,
		"congest.wave_ms_p50":           ms("congest.wave").Median,
		"congest.rounds":                median(rounds),
		"congest.msgs":                  median(msgs),
		"congest.bits":                  median(bits),
		"congest.dropped_rounds":        median(dropped),
		"congest.msgs_per_round":        median(msgsPerRound),
		"congest.ns_per_round":          median(nsPerRound),
		"congest.ns_per_msg":            median(nsPerMsg),
		"query.self_s":                  median(querySelf),
		"query.eval_calls":              median(t.values["query.eval_calls"]),
		"query.distinct_evals":          median(t.values["query.distinct_evals"]),
		"query.iterations":              median(t.values["query.iterations"]),
		"query.distinct_ratio":          median(t.values["query.distinct_ratio"]),
		"apsp.first_row_s":              median(t.values["apsp.first_row_s"]),
		"apsp.oracle_build_s":           median(t.values["apsp.oracle_build_s"]),
		"apsp.block_ms_p50":             block.Median,
		"apsp.block_ms_tail":            block.Tail,
		"classical.walk_s":              median(secs["classical.walk"]),
		"classical.wave_s":              median(secs["classical.wave"]),
		"classical.convergecast_s":      median(secs["classical.convergecast"]),
		"classical.wave_msgs_per_round": median(waveMsgsPerRound),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
