package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {0.001, 1}, {1, 100}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
		ok   bool
	}{
		{1000, 0.99, 10, true}, // the smallest sample that supports a p99
		{999, 0.99, 9, false},
		{100, 0.99, 1, false},
		{20, 0.5, 10, true},
		{19, 0.5, 9, false},
		{0, 0.99, 0, false},
	} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
		if got := supported(c.n, c.q); got != c.ok {
			t.Errorf("supported(%d, %g) = %t, want %t", c.n, c.q, got, c.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	var ds []time.Duration
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	s := summarize(ds)
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 || s.Beyond99 != 10 {
		t.Errorf("summarize = %+v, want N 1000, P50 500, P99 990, Beyond99 10", s)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
}
