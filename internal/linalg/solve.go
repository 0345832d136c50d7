// Package linalg solves the linear systems of the Markov estimators.
// SolveFlow is the one place such a system is built: the flow
// equations x = inflow + Pᵀx of a chain with one unknown per basic
// block or per function, the sparse linear-equational form of a
// probabilistic program (Di Pierro & Wiklicky, arXiv 1307.4474). A
// system reaches cfg.MaxNodes = 2,048 unknowns and is solved by dense
// Gaussian elimination with partial pivoting, which is cubic in the
// unknowns once the elimination fills in: a 2,040-arm switch inside a
// loop takes seconds. Solve is the same elimination on a general
// matrix, kept as the reference SolveFlow is tested against.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when the system has no unique solution.
var ErrSingular = errors.New("linalg: singular matrix")

// ErrNegativeFlow is returned by SolveFlow when a flow is negative or
// not finite: the chain's arcs carry more than the flow they receive.
var ErrNegativeFlow = errors.New("linalg: negative or non-finite flow")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to the element at (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Arc is one transition of a Markov chain: a fraction P of the flow
// through state From continues to state To.
type Arc struct {
	From, To int
	P        float64
}

// SolveFlow solves the flow equations of an n-state Markov chain:
// x[i] = inflow[i] + Σ P over the arcs into i of x[From]. Parallel arcs
// add. The solution is computed in place in inflow, which has n
// entries and is returned as x. A flow above −1e-9 but below zero is
// rounding and clamps to 0. A flow below −1e-9, or one that is not
// finite, returns ErrNegativeFlow with the unclamped x; a singular
// system (a cycle taken with probability 1) returns ErrSingular and a
// nil x.
func SolveFlow(n int, arcs []Arc, inflow []float64) ([]float64, error) {
	a := make([]float64, n*n) // I − Pᵀ
	for i := 0; i < n; i++ {
		a[i*n+i] = 1
	}
	for _, e := range arcs {
		a[e.To*n+e.From] -= e.P
	}
	x := inflow
	if err := eliminate(a, n, x); err != nil {
		return nil, err
	}
	for _, v := range x {
		if v < -1e-9 || math.IsNaN(v) || math.IsInf(v, 0) {
			return x, ErrNegativeFlow
		}
	}
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
	return x, nil
}

// Solve solves A·x = b by Gaussian elimination with partial pivoting,
// on copies (A and b are not modified). It returns ErrSingular if no
// pivot exceeds the tolerance.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: matrix is %d×%d, want square", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs has %d entries, want %d", len(b), n)
	}
	if n == 0 {
		return nil, nil
	}
	x := append([]float64(nil), b...)
	if err := eliminate(a.Clone().Data, n, x); err != nil {
		return nil, err
	}
	return x, nil
}

// eliminate solves the n×n row-major system m·x = b in place: m is
// destroyed, and b is replaced by the solution.
func eliminate(m []float64, n int, x []float64) error {
	const tol = 1e-12
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r*n+col]); v > best {
				best = v
				pivot = r
			}
		}
		if best < tol {
			return ErrSingular
		}
		if pivot != col {
			rc, rp := m[col*n:(col+1)*n], m[pivot*n:(pivot+1)*n]
			for j := range rc {
				rc[j], rp[j] = rp[j], rc[j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		rc := m[col*n : (col+1)*n]
		inv := 1 / rc[col]
		for r := col + 1; r < n; r++ {
			rr := m[r*n : (r+1)*n]
			f := rr[col] * inv
			if f == 0 {
				continue
			}
			rr[col] = 0
			for j := col + 1; j < n; j++ {
				rr[j] += -f * rc[j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		ri := m[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
	return nil
}

// Residual returns the max-norm of A·x − b, a cheap verification that a
// solution is valid.
func Residual(a *Matrix, x, b []float64) float64 {
	n := a.Rows
	worst := 0.0
	for i := 0; i < n; i++ {
		s := -b[i]
		for j := 0; j < a.Cols; j++ {
			s += a.At(i, j) * x[j]
		}
		if v := math.Abs(s); v > worst {
			worst = v
		}
	}
	return worst
}
