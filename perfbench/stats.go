package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100): the smallest sample such that at least p% of the samples are at
// or below it, i.e. sorted[ceil(p·n/100) − 1]. It never interpolates,
// so the value is always one that was measured. xs must be non-empty
// and is not modified.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// windowedP90 splits xs, in the order measured, into p90Windows runs of
// consecutive samples whose sizes differ by at most one, and returns the
// median of their p90s. xs must hold at least p90Windows samples.
func windowedP90(xs []float64) float64 {
	var p90s []float64
	for w := 0; w < p90Windows; w++ {
		p90s = append(p90s, percentile(xs[w*len(xs)/p90Windows:(w+1)*len(xs)/p90Windows], 90))
	}
	return median(p90s)
}

// ms converts durations to float milliseconds for percentile.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0 (a metric that is not defined on
// a workload reads 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowMedians returns, for each i, the median of xs[i-w .. i+w],
// clipped to the ends of xs.
func windowMedians(xs []float64, w int) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = median(xs[max(0, i-w):min(len(xs), i+w+1)])
	}
	return out
}
