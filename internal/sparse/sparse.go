// Package sparse provides the sparse numerical substrate for the
// application examples: CSR matrices, matrix-vector products protected
// by ABFT column checksums (Huang & Abraham, as cited in §7.2 of the
// paper), and a conjugate-gradient solver whose residual/orthogonality
// invariants serve as application-level silent-error detectors.
package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape reports mismatched dimensions.
var ErrShape = errors.New("sparse: dimension mismatch")

// Coord is one coordinate-format entry used to assemble matrices.
type Coord struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Vals       []float64
}

// NewCSR assembles a CSR matrix from coordinate entries; duplicate
// coordinates are summed. The entry list is not modified.
func NewCSR(rows, cols int, entries []Coord) (*CSR, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("sparse: shape %dx%d", rows, cols)
	}
	// Deduplicate via a per-row map then pack.
	perRow := make([]map[int]float64, rows)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols)
		}
		if perRow[e.Row] == nil {
			perRow[e.Row] = make(map[int]float64)
		}
		perRow[e.Row][e.Col] += e.Val
	}
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] = m.RowPtr[i] + len(perRow[i])
	}
	nnz := m.RowPtr[rows]
	m.ColIdx = make([]int, 0, nnz)
	m.Vals = make([]float64, 0, nnz)
	for i := 0; i < rows; i++ {
		// Deterministic column order within the row.
		cols := make([]int, 0, len(perRow[i]))
		for c := range perRow[i] {
			cols = append(cols, c)
		}
		insertionSort(cols)
		for _, c := range cols {
			m.ColIdx = append(m.ColIdx, c)
			m.Vals = append(m.Vals, perRow[i][c])
		}
	}
	return m, nil
}

func insertionSort(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// MulVec computes y = A·x into a fresh slice.
func (m *CSR) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("%w: %dx%d by %d", ErrShape, m.Rows, m.Cols, len(x))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Vals[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
	return y, nil
}

// ColumnChecksums returns cᵀ = 1ᵀA, the ABFT column-checksum vector:
// for any x, Σᵢ (A·x)ᵢ must equal c·x. A corrupted SpMV output is
// detected by comparing the two sums.
func (m *CSR) ColumnChecksums() []float64 {
	c := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c[m.ColIdx[k]] += m.Vals[k]
		}
	}
	return c
}

// CheckedMulVec computes y = A·x and verifies it against the supplied
// column checksums within a relative tolerance; ok reports whether the
// ABFT invariant held. Passing checksums from ColumnChecksums amortises
// the O(nnz) checksum construction across products.
func (m *CSR) CheckedMulVec(x, checksums []float64, tol float64) (y []float64, ok bool, err error) {
	if len(checksums) != m.Cols {
		return nil, false, fmt.Errorf("%w: %d checksums for %d cols", ErrShape, len(checksums), m.Cols)
	}
	y, err = m.MulVec(x)
	if err != nil {
		return nil, false, err
	}
	var ySum, cx, scale float64
	for _, v := range y {
		ySum += v
		scale += math.Abs(v)
	}
	for j, v := range x {
		cx += checksums[j] * v
	}
	if scale < 1 {
		scale = 1
	}
	return y, math.Abs(ySum-cx) <= tol*scale, nil
}

// Poisson2D returns the 5-point Laplacian on an n×n grid (size n²),
// the workhorse SPD test matrix for iterative solvers.
func Poisson2D(n int) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sparse: Poisson2D size %d", n)
	}
	id := func(i, j int) int { return i*n + j }
	var entries []Coord
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r := id(i, j)
			entries = append(entries, Coord{r, r, 4})
			if i > 0 {
				entries = append(entries, Coord{r, id(i-1, j), -1})
			}
			if i < n-1 {
				entries = append(entries, Coord{r, id(i+1, j), -1})
			}
			if j > 0 {
				entries = append(entries, Coord{r, id(i, j-1), -1})
			}
			if j < n-1 {
				entries = append(entries, Coord{r, id(i, j+1), -1})
			}
		}
	}
	return NewCSR(n*n, n*n, entries)
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// CGState carries the conjugate-gradient iteration state so callers
// (the resilience engine) can snapshot, restore and advance it
// incrementally.
type CGState struct {
	A     *CSR
	B     []float64
	X     []float64 // current iterate
	R     []float64 // residual b - A·x
	P     []float64 // search direction
	RdotR float64
	Iter  int
}

// NewCG initialises conjugate gradient for A·x = b from the zero
// vector. A must be square and symmetric positive definite for the
// method's guarantees to hold.
func NewCG(a *CSR, b []float64) (*CGState, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: CG needs square matrix", ErrShape)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("%w: rhs %d for %dx%d", ErrShape, len(b), a.Rows, a.Cols)
	}
	s := &CGState{
		A: a,
		B: append([]float64(nil), b...),
		X: make([]float64, a.Rows),
		R: append([]float64(nil), b...),
		P: append([]float64(nil), b...),
	}
	s.RdotR = Dot(s.R, s.R)
	return s, nil
}

// Step performs one CG iteration. It returns the residual norm after
// the step.
func (s *CGState) Step() (float64, error) {
	ap, err := s.A.MulVec(s.P)
	if err != nil {
		return 0, err
	}
	pap := Dot(s.P, ap)
	if pap == 0 {
		return math.Sqrt(s.RdotR), nil // stagnation; residual unchanged
	}
	alpha := s.RdotR / pap
	Axpy(alpha, s.P, s.X)
	Axpy(-alpha, ap, s.R)
	rNew := Dot(s.R, s.R)
	beta := rNew / s.RdotR
	for i := range s.P {
		s.P[i] = s.R[i] + beta*s.P[i]
	}
	s.RdotR = rNew
	s.Iter++
	return math.Sqrt(rNew), nil
}

// ResidualNorm returns |b - A·x| recomputed from scratch (not the
// recurrence residual), the guaranteed-verification quantity for CG.
func (s *CGState) ResidualNorm() (float64, error) {
	ax, err := s.A.MulVec(s.X)
	if err != nil {
		return 0, err
	}
	var acc float64
	for i := range ax {
		d := s.B[i] - ax[i]
		acc += d * d
	}
	return math.Sqrt(acc), nil
}

// RecurrenceDrift returns the gap between the recurrence residual R
// and the true residual b - A·x, normalised by |b| (the problem
// scale). Silent data corruptions break the recurrence invariant, so a
// drift above a small threshold is a cheap partial detector (Chen's
// Online-ABFT idea cited in §1). Normalising by |b| rather than by the
// current residual keeps the detector's false-positive rate near zero
// after convergence, when the residual itself is pure roundoff.
func (s *CGState) RecurrenceDrift() (float64, error) {
	ax, err := s.A.MulVec(s.X)
	if err != nil {
		return 0, err
	}
	var num, den float64
	for i := range ax {
		true_ := s.B[i] - ax[i]
		d := true_ - s.R[i]
		num += d * d
		den += s.B[i] * s.B[i]
	}
	if den == 0 {
		return math.Sqrt(num), nil
	}
	return math.Sqrt(num / den), nil
}
