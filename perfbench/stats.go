package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the sample-count rule for percentiles: a percentile is
// supported only when at least this many samples lie beyond it, so a
// p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted, an ascending
// slice, by the nearest-rank method: the smallest sample with at least a
// q share of the samples at or below it. It returns 0 for no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond returns how many of n samples lie strictly above the nearest-rank
// q-quantile: the support a percentile rests on.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// supported reports whether n samples support the q-quantile.
func supported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// latencySummary is one phase's latency distribution in milliseconds.
type latencySummary struct {
	N        int
	P50, P99 float64
	// Beyond99 is the number of samples above the p99.
	Beyond99 int
}

// summarize sorts a copy of the samples and takes their percentiles.
func summarize(samples []time.Duration) latencySummary {
	ms := make([]float64, len(samples))
	for i, d := range samples {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	return latencySummary{
		N:        len(ms),
		P50:      percentile(ms, 0.50),
		P99:      percentile(ms, 0.99),
		Beyond99: beyond(len(ms), 0.99),
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}
