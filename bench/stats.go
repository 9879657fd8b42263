package main

import (
	"cmp"
	"math"
	"slices"
)

// summary describes one sampled timing: median, quartiles, interquartile
// mean, sample count and the tail — the highest percentile that still has
// at least ten samples beyond it (absent below eleven samples).
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	IQM    float64 `json:"iqm"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	sum := summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), IQM: iqm(s)}
	sum.TailP, sum.Tail, _ = tail(s)
	return sum
}

// iqm is the interquartile mean of sorted data: the mean of what remains
// after dropping the lowest and the highest quarter (rounded down). When
// the samples fall into a few clusters of different cost, the median sits
// in the gap between two clusters and jumps as their shares shift; the
// interquartile mean moves with the shares smoothly, and it still ignores
// the rare calls that a host stall stretched.
func iqm(sorted []float64) float64 {
	k := len(sorted) / 4
	mid := sorted[k : len(sorted)-k]
	if len(mid) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// quantile is the p-quantile of sorted data by the "exclusive" method
// (position p·(n+1), linear interpolation) that Python's
// statistics.quantiles uses by default, clamped to the data range so small
// samples never extrapolate.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	h := p * float64(n+1)
	if h <= 1 {
		return sorted[0]
	}
	if h >= float64(n) {
		return sorted[n-1]
	}
	j := int(h)
	return sorted[j-1] + (h-float64(j))*(sorted[j]-sorted[j-1])
}

// tail returns the highest percentile of sorted data with at least ten
// samples beyond it, and the sample at that percentile: rank n-10 of n.
// With ten samples or fewer there is none.
func tail(sorted []float64) (pct, value float64, ok bool) {
	n := len(sorted)
	if n < 11 {
		return 0, 0, false
	}
	k := n - 10
	return 100 * float64(k) / float64(n), sorted[k-1], true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// interval is a half-open time interval [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the length of parent minus the part of it that the union of
// the children's intervals covers. Children may overlap each other (as
// concurrent work does) and may stick out of the parent.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, parent.start), min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	covered := int64(0)
	reach := parent.start // end of the union so far
	for _, c := range cs {
		if c.end > reach {
			covered += c.end - max(c.start, reach)
			reach = c.end
		}
	}
	return parent.end - parent.start - covered
}
