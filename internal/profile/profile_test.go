package profile

import (
	"math"
	"testing"
	"testing/quick"
)

func sample() *Profile {
	p := New([]int{2, 3}, 2, 2, []int{3})
	p.BlockCounts[0][0] = 10
	p.BlockCounts[0][1] = 20
	p.BlockCounts[1][2] = 30
	p.FuncCalls[0] = 5
	p.FuncCalls[1] = 7
	p.CallSiteCounts[1] = 4
	p.BranchTaken[0] = 8
	p.BranchNot[0] = 2
	p.SwitchArm[0][2] = 6
	p.Cycles = 100
	return p
}

func TestTotalAndScale(t *testing.T) {
	p := sample()
	if got := p.TotalBlockCount(); got != 60 {
		t.Fatalf("total = %g, want 60", got)
	}
	p.Scale(0.5)
	if got := p.TotalBlockCount(); got != 30 {
		t.Errorf("scaled total = %g, want 30", got)
	}
	if p.FuncCalls[1] != 3.5 || p.Cycles != 50 || p.SwitchArm[0][2] != 3 {
		t.Errorf("scale missed fields: %+v", p)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := sample()
	c := p.Clone()
	c.BlockCounts[0][0] = 999
	c.SwitchArm[0][0] = 999
	c.FuncCalls[0] = 999
	if p.BlockCounts[0][0] == 999 || p.SwitchArm[0][0] == 999 || p.FuncCalls[0] == 999 {
		t.Error("Clone shares storage with the original")
	}
}

func TestAggregateNormalizes(t *testing.T) {
	a := sample() // total 60
	b := sample()
	b.Scale(3) // total 180, but identical shape
	agg, err := Aggregate([]*Profile{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// b is normalized to a's total, so the aggregate is exactly 2x a.
	if got := agg.TotalBlockCount(); math.Abs(got-120) > 1e-9 {
		t.Errorf("aggregate total = %g, want 120", got)
	}
	if math.Abs(agg.FuncCalls[0]-10) > 1e-9 {
		t.Errorf("aggregate FuncCalls[0] = %g, want 10", agg.FuncCalls[0])
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, err := Aggregate(nil); err == nil {
		t.Error("nil aggregate should fail")
	}
	if _, err := Aggregate([]*Profile{}); err == nil {
		t.Error("empty-slice aggregate should fail")
	}
	a := sample()
	b := New([]int{1}, 1, 1, nil)
	if _, err := Aggregate([]*Profile{a, b}); err == nil {
		t.Error("shape mismatch should fail")
	}
}

// Inner-shape mismatches (same number of functions or switches, but
// different lengths inside) must error, not panic.
func TestAggregateInnerShapeMismatch(t *testing.T) {
	a := sample() // shape {2,3} blocks, 2 sites, 2 branches, switch arms {3}
	blocks := New([]int{2, 4}, 2, 2, []int{3})
	if _, err := Aggregate([]*Profile{a, blocks}); err == nil {
		t.Error("per-function block-count mismatch should fail")
	}
	arms := New([]int{2, 3}, 2, 2, []int{5})
	if _, err := Aggregate([]*Profile{a, arms}); err == nil {
		t.Error("switch-arm count mismatch should fail")
	}
	switches := New([]int{2, 3}, 2, 2, []int{3, 3})
	if _, err := Aggregate([]*Profile{a, switches}); err == nil {
		t.Error("switch count mismatch should fail")
	}
}

func TestAggregateSingle(t *testing.T) {
	a := sample()
	agg, err := Aggregate([]*Profile{a})
	if err != nil {
		t.Fatal(err)
	}
	if agg.TotalBlockCount() != a.TotalBlockCount() {
		t.Error("single-profile aggregate should match the profile")
	}
	if agg.Label != "aggregate" {
		t.Errorf("aggregate label = %q", agg.Label)
	}
	agg.Scale(2)
	if a.TotalBlockCount() != 60 {
		t.Error("aggregate shares storage with its input")
	}
}

// All-zero profiles must aggregate without dividing by zero.
func TestAggregateZeroTotals(t *testing.T) {
	a := New([]int{2}, 1, 1, nil)
	b := New([]int{2}, 1, 1, nil)
	agg, err := Aggregate([]*Profile{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.TotalBlockCount(); got != 0 {
		t.Errorf("zero aggregate total = %g, want 0", got)
	}
	for _, row := range agg.BlockCounts {
		for _, c := range row {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("zero aggregate produced non-finite count %v", c)
			}
		}
	}
}

// Aggregation must not mutate its inputs.
func TestAggregateInputsUntouched(t *testing.T) {
	a, b := sample(), sample()
	b.Scale(4)
	wantA, wantB := a.TotalBlockCount(), b.TotalBlockCount()
	if _, err := Aggregate([]*Profile{a, b}); err != nil {
		t.Fatal(err)
	}
	if a.TotalBlockCount() != wantA || b.TotalBlockCount() != wantB {
		t.Error("Aggregate mutated an input profile")
	}
}

// Property: aggregation is invariant under per-profile scaling — the
// paper's normalization makes inputs with different run lengths count
// equally.
func TestAggregateScaleInvariance(t *testing.T) {
	f := func(scaleRaw uint8) bool {
		scale := float64(scaleRaw%50) + 0.5
		a1, b1 := sample(), sample()
		b1.BlockCounts[1][0] = 50 // make b different from a
		agg1, err := Aggregate([]*Profile{a1, b1})
		if err != nil {
			return false
		}
		a2, b2 := sample(), sample()
		b2.BlockCounts[1][0] = 50
		b2.Scale(scale)
		agg2, err := Aggregate([]*Profile{a2, b2})
		if err != nil {
			return false
		}
		for i := range agg1.FuncCalls {
			if math.Abs(agg1.FuncCalls[i]-agg2.FuncCalls[i]) > 1e-6 {
				return false
			}
		}
		return math.Abs(agg1.TotalBlockCount()-agg2.TotalBlockCount()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
