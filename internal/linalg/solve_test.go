package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveIdentity(t *testing.T) {
	a := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		a.Set(i, i, 1)
	}
	b := []float64{4, 5, 6}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-12 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], b[i])
		}
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x - y = 1  →  x = 2, y = 1.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, -1)
	x, err := Solve(a, []float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("x = %v, want [2 1]", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [7 3]", x)
	}
}

func TestSolveStrchrSystem(t *testing.T) {
	// The paper's Figure 7 system (entry merged into while):
	// while = 1 + incr; if = .8 while; r1 = .2 if; incr = .8 if; r2 = .2 while
	// Order: while, if, r1, incr, r2.
	x, err := SolveFlow(5, []Arc{
		{3, 0, 1}, // incr -> while
		{0, 1, 0.8},
		{1, 2, 0.2},
		{1, 3, 0.8},
		{0, 4, 0.2},
	}, []float64{1, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1 / 0.36, 0.8 / 0.36, 0.16 / 0.36, 0.64 / 0.36, 0.2 / 0.36}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestSolveDimensionErrors(t *testing.T) {
	if _, err := Solve(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Error("non-square matrix accepted")
	}
	if _, err := Solve(NewMatrix(2, 2), []float64{1}); err == nil {
		t.Error("wrong rhs length accepted")
	}
	if x, err := Solve(NewMatrix(0, 0), nil); err != nil || x != nil {
		t.Errorf("empty system: %v %v", x, err)
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 3)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 2)
	b := []float64{5, 5}
	orig := a.Clone()
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != orig.Data[i] {
			t.Fatal("Solve mutated the input matrix")
		}
	}
	if b[0] != 5 || b[1] != 5 {
		t.Fatal("Solve mutated the rhs")
	}
}

// Property: for random diagonally-dominant systems (always solvable),
// the residual is tiny.
func TestSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, nRaw uint8) bool {
		rng.Seed(seed)
		n := int(nRaw%20) + 1
		a := NewMatrix(n, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := rng.Float64()*2 - 1
					a.Set(i, j, v)
					rowSum += math.Abs(v)
				}
			}
			a.Set(i, i, rowSum+1+rng.Float64())
			b[i] = rng.Float64()*20 - 10
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		return Residual(a, x, b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 4.5)
	m.Add(1, 2, 0.5)
	if got := m.At(1, 2); got != 5 {
		t.Errorf("At = %g, want 5", got)
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone shares storage")
	}
}
