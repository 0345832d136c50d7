package linalg

import (
	"errors"
	"math"
	"testing"
)

// TestSolveSingularInfiniteLoop: a two-block cycle taken with
// probability 1 (while(1) with no break) yields a rank-deficient
// system — frequencies are unbounded, and the solver must say so with
// the typed error rather than returning garbage.
func TestSolveSingularInfiniteLoop(t *testing.T) {
	// entry(0) -> loop(1), loop -> loop body(2) -> loop, all prob 1.
	x, err := SolveFlow(3, []Arc{
		{0, 1, 1}, // entry feeds the loop head
		{1, 2, 1}, // head always enters the body
		{2, 1, 1}, // body always returns to the head
	}, []float64{1, 0, 0})
	if err == nil {
		t.Fatal("probability-1 cycle solved; want ErrSingular")
	}
	if !errors.Is(err, ErrSingular) || x != nil {
		t.Fatalf("x, err = %v, %v; want nil, ErrSingular", x, err)
	}
}

// TestSolveSingularRankDeficient: duplicating a row (two blocks with
// identical in-flow equations, as produced by mutually-unreachable
// regions collapsing) leaves the system without a unique solution.
func TestSolveSingularRankDeficient(t *testing.T) {
	a := NewMatrix(3, 3)
	rows := [][]float64{
		{1, -0.5, 0},
		{1, -0.5, 0}, // identical to row 0
		{0, -0.5, 1},
	}
	for i, r := range rows {
		for j, v := range r {
			a.Set(i, j, v)
		}
	}
	_, err := Solve(a, []float64{1, 1, 0})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("rank-deficient system: err = %v, want ErrSingular", err)
	}
}

// TestSolveSingularBelowTolerance: a pivot smaller than the solver's
// 1e-12 tolerance is treated as zero — numerically singular.
func TestSolveSingularBelowTolerance(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1e-13)
	a.Set(1, 1, 1)
	_, err := Solve(a, []float64{1, 1})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("sub-tolerance pivot: err = %v, want ErrSingular", err)
	}
}

// TestSolveIllConditionedStillSolves: a poorly scaled but full-rank
// system (pivot well above tolerance) must solve to finite values with
// a small residual — the solver rejects singularity, not conditioning.
func TestSolveIllConditionedStillSolves(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1e-9)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 1)
	b := []float64{1, 2}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatalf("ill-conditioned solve failed: %v", err)
	}
	for i := 0; i < 2; i++ {
		var s float64
		for j := 0; j < 2; j++ {
			s += a.At(i, j) * x[j]
		}
		if math.IsNaN(s) || math.Abs(s-b[i]) > 1e-6 {
			t.Fatalf("residual row %d: got %v, want %v (x=%v)", i, s, b[i], x)
		}
	}
}

// TestSolveNearlySingularMarkov: a loop continuing with probability
// 1-1e-15 is indistinguishable from 1 at float64 precision once
// eliminated; the solver must fail typed instead of emitting enormous
// unstable frequencies.
func TestSolveNearlySingularMarkov(t *testing.T) {
	p := 1 - 1e-15
	x, err := SolveFlow(2, []Arc{
		{0, 1, 1}, // entry -> head
		{1, 1, p}, // head -> head (self-loop, ~prob 1)
	}, []float64{1, 0})
	if err == nil {
		// If the pivot squeaks past tolerance the solution must at least
		// be finite; either outcome is acceptable, NaN/Inf is not.
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("near-singular system produced non-finite %v", x)
			}
		}
		return
	}
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}
