package main

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		name string
		xs   []float64
		want summary
	}{
		// Quartiles agree with Python's statistics.quantiles(xs, n=4).
		{"odd", seq(9), summary{N: 9, Median: 5, Q1: 2.5, Q3: 7.5, IQM: 5}},
		{"even", []float64{4, 1, 3, 2}, summary{N: 4, Median: 2.5, Q1: 1.25, Q3: 3.75, IQM: 2.5}},
		{"one", []float64{7}, summary{N: 1, Median: 7, Q1: 7, Q3: 7, IQM: 7}},
		// Python extrapolates beyond the data here; summarize clamps.
		{"two", []float64{3, 1}, summary{N: 2, Median: 2, Q1: 1, Q3: 3, IQM: 2}},
		{"empty", nil, summary{}},
		{"ten has no tail", seq(10), summary{N: 10, Median: 5.5, Q1: 2.75, Q3: 8.25, IQM: 5.5}},
		{"eleven", seq(11), summary{N: 11, Median: 6, Q1: 3, Q3: 9, IQM: 6, TailP: 100.0 / 11, Tail: 1}},
		{"twenty", seq(20), summary{N: 20, Median: 10.5, Q1: 5.25, Q3: 15.75, IQM: 10.5, TailP: 50, Tail: 10}},
		{"thousand", seq(1000), summary{N: 1000, Median: 500.5, Q1: 250.25, Q3: 750.75, IQM: 500.5, TailP: 99, Tail: 990}},
		// Two clusters: the median falls in the gap, the interquartile
		// mean averages the middle half across both.
		{"two clusters", []float64{20, 10, 21, 10, 20, 11, 20, 10}, summary{N: 8, Median: 15.5, Q1: 10, Q3: 20, IQM: 15.25}},
		// A stall stretches one sample; the interquartile mean drops it.
		{"outlier", []float64{2, 1, 100, 3, 4}, summary{N: 5, Median: 3, Q1: 1.5, Q3: 52, IQM: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := summarize(tc.xs); got != tc.want {
				t.Errorf("summarize = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for n := 1; n <= 200; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		pct, v, ok := tail(xs)
		if ok != (n >= 11) {
			t.Fatalf("n=%d: ok=%v", n, ok)
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != 10 || math.Abs(pct-100*float64(n-10)/float64(n)) > 1e-9 {
			t.Fatalf("n=%d: p%.3f value %v has %d samples beyond", n, pct, v, beyond)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{30, 40}, {10, 20}}, 80},
		{"overlapping", []interval{{10, 20}, {15, 30}}, 80},
		{"nested", []interval{{10, 50}, {20, 30}, {25, 45}}, 60},
		{"chain", []interval{{10, 20}, {20, 30}, {29, 35}}, 75},
		{"sticking out", []interval{{-10, 5}, {90, 120}}, 85},
		{"outside", []interval{{-20, -10}, {100, 130}}, 100},
		{"covering", []interval{{0, 100}, {40, 60}}, 0},
		{"empty child", []interval{{50, 50}}, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := selfTime(parent, tc.children); got != tc.want {
				t.Errorf("selfTime = %d, want %d", got, tc.want)
			}
		})
	}
}
