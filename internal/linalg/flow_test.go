package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestSolveFlowParallelArcsAdd: two arcs between the same pair of
// states carry the sum of their probabilities, as a branch whose arms
// both reach one block does.
func TestSolveFlowParallelArcsAdd(t *testing.T) {
	split, err := SolveFlow(2, []Arc{{0, 1, 1}, {1, 1, 0.25}, {1, 1, 0.25}}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := SolveFlow(2, []Arc{{0, 1, 1}, {1, 1, 0.5}}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if split[1] != 2 || whole[1] != 2 {
		t.Errorf("head flow = %v (split) and %v (whole), want 2", split[1], whole[1])
	}
}

// TestSolveFlowNegativeFlow: a chain whose arcs carry more than they
// receive has a negative or non-finite solution. SolveFlow reports it
// with the unclamped x, which the call chain's last resort still uses.
func TestSolveFlowNegativeFlow(t *testing.T) {
	for _, tc := range []struct {
		name string
		arcs []Arc
		in   float64
		want float64
	}{
		{"over-unity self arc", []Arc{{0, 0, 2}}, 1, -1},
		{"just past the tolerance", nil, -2e-9, -2e-9},
		{"not finite", []Arc{{0, 0, math.NaN()}}, 1, math.NaN()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, err := SolveFlow(1, tc.arcs, []float64{tc.in})
			if !errors.Is(err, ErrNegativeFlow) {
				t.Fatalf("err = %v, want ErrNegativeFlow", err)
			}
			if len(x) != 1 || (x[0] != tc.want && !(math.IsNaN(x[0]) && math.IsNaN(tc.want))) {
				t.Errorf("x = %v, want [%v] unclamped", x, tc.want)
			}
		})
	}
}

// TestSolveFlowClampsRounding: a flow within 1e-9 below zero is
// rounding, and reads as 0.
func TestSolveFlowClampsRounding(t *testing.T) {
	x, err := SolveFlow(2, nil, []float64{-1e-12, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 || x[1] != 3 {
		t.Errorf("x = %v, want [0 3]", x)
	}
}

// TestSolveFlowOverwritesInflow: the solution is computed in the
// caller's inflow slice, not in a copy.
func TestSolveFlowOverwritesInflow(t *testing.T) {
	inflow := []float64{1, 0}
	x, err := SolveFlow(2, []Arc{{0, 1, 0.5}}, inflow)
	if err != nil {
		t.Fatal(err)
	}
	if &x[0] != &inflow[0] || inflow[0] != 1 || inflow[1] != 0.5 {
		t.Errorf("inflow = %v after the solve (x = %v), want the solution [1 0.5] in place", inflow, x)
	}
}

// TestSolveFlowMatchesSolve: on random substochastic chains, parallel
// arcs and self arcs included, SolveFlow agrees with the dense
// reference Solve on the hand-built system (I − Pᵀ)x = inflow.
func TestSolveFlowMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(24)
		var arcs []Arc
		for from := 0; from < n; from++ {
			// Out-probabilities sum to at most 0.95, so every chain is
			// absorbing and the system is regular.
			left := 0.95 * rng.Float64()
			for k := rng.Intn(4); k > 0; k-- {
				p := left * rng.Float64()
				left -= p
				arcs = append(arcs, Arc{From: from, To: rng.Intn(n), P: p})
			}
		}
		inflow := make([]float64, n)
		for i := range inflow {
			if rng.Intn(3) == 0 {
				inflow[i] = rng.Float64()
			}
		}
		inflow[0] = 1

		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, 1)
		}
		for _, e := range arcs {
			a.Add(e.To, e.From, -e.P)
		}
		want, err := Solve(a, inflow)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		got, err := SolveFlow(n, arcs, append([]float64(nil), inflow...))
		if err != nil {
			t.Fatalf("trial %d: SolveFlow: %v", trial, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
				t.Fatalf("trial %d: x[%d] = %v, reference %v", trial, i, got[i], want[i])
			}
		}
	}
}
