package analytic

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"respat/internal/core"
	"respat/internal/xmath"
)

// This file holds the small dense linear algebra the tests need: the
// symmetric matrix A^(m) of Proposition 3, the quadratic form
// f = βᵀAβ that measures expected re-executed work in a segment, a
// Gaussian-elimination solver, and the equality-constrained quadratic
// program that recovers the optimal chunk sizes β* numerically, the
// ground truth for the closed form of Theorem 3.

// errSingular reports a numerically singular system.
var errSingular = errors.New("analytic test: singular matrix")

// errShape reports mismatched dimensions.
var errShape = errors.New("analytic test: dimension mismatch")

// matrix is a dense row-major matrix.
type matrix struct {
	Rows, Cols int
	Data       []float64
}

// newMatrix allocates a zero rows×cols matrix.
func newMatrix(rows, cols int) *matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("analytic test: invalid shape %dx%d", rows, cols))
	}
	return &matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *matrix) Clone() *matrix {
	c := newMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns m·x.
func (m *matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("%w: %dx%d by %d", errShape, m.Rows, m.Cols, len(x))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// IsSymmetric reports whether the matrix equals its transpose within tol.
func (m *matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// dot returns the inner product of two equal-length vectors.
func dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("analytic test: dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// quadForm returns βᵀ·A·β. A must be square with dimension len(beta).
func quadForm(a *matrix, beta []float64) (float64, error) {
	y, err := a.MulVec(beta)
	if err != nil {
		return 0, err
	}
	if a.Rows != a.Cols {
		return 0, fmt.Errorf("%w: quad form needs square matrix", errShape)
	}
	return dot(beta, y), nil
}

// verificationMatrix builds the m×m symmetric matrix A^(m) of
// Proposition 3 for a partial-verification recall r in (0,1]:
//
//	A[i][j] = (1 + (1-r)^{|i-j|}) / 2.
//
// With r = 1 it degenerates to (I + J·0 …): diagonal 1, off-diagonal ½,
// matching the guaranteed-verification case of [6].
func verificationMatrix(m int, r float64) (*matrix, error) {
	if m <= 0 {
		return nil, fmt.Errorf("analytic test: verification matrix size %d", m)
	}
	if r <= 0 || r > 1 || math.IsNaN(r) {
		return nil, fmt.Errorf("analytic test: recall %v out of (0,1]", r)
	}
	a := newMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			a.Set(i, j, (1+math.Pow(1-r, float64(d)))/2)
		}
	}
	return a, nil
}

// solveLinear solves A·x = b in place via Gaussian elimination with
// partial pivoting. A and b are not modified.
func solveLinear(a *matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: solve needs square matrix", errShape)
	}
	n := a.Rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs length %d for %dx%d", errShape, len(b), n, n)
	}
	m := a.Clone()
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(m.At(col, col))
		for row := col + 1; row < n; row++ {
			if v := math.Abs(m.At(row, col)); v > best {
				piv, best = row, v
			}
		}
		if best < 1e-14 {
			return nil, errSingular
		}
		if piv != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[piv*n+j] = m.Data[piv*n+j], m.Data[col*n+j]
			}
			x[col], x[piv] = x[piv], x[col]
		}
		inv := 1 / m.At(col, col)
		for row := col + 1; row < n; row++ {
			f := m.At(row, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Set(row, j, m.At(row, j)-f*m.At(col, j))
			}
			x[row] -= f * x[col]
		}
	}
	// Back substitution.
	for row := n - 1; row >= 0; row-- {
		s := x[row]
		for j := row + 1; j < n; j++ {
			s -= m.At(row, j) * x[j]
		}
		x[row] = s / m.At(row, row)
	}
	return x, nil
}

// minQuadFormSimplex solves
//
//	minimize    βᵀAβ
//	subject to  Σ βi = 1
//
// for symmetric positive-definite A via the KKT system
//
//	[ 2A  1 ] [β]   [0]
//	[ 1ᵀ  0 ] [μ] = [1],
//
// returning the optimal β and the minimum value. This is the numeric
// ground truth against which the closed-form chunk sizes β* of
// Theorem 3 are validated. Note the constraint is only the equality;
// for the matrices A^(m) of the paper the solution is interior
// (all βi > 0), which the tests assert.
func minQuadFormSimplex(a *matrix) (beta []float64, value float64, err error) {
	if a.Rows != a.Cols {
		return nil, 0, fmt.Errorf("%w: need square matrix", errShape)
	}
	n := a.Rows
	kkt := newMatrix(n+1, n+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			kkt.Set(i, j, 2*a.At(i, j))
		}
		kkt.Set(i, n, 1)
		kkt.Set(n, i, 1)
	}
	rhs := make([]float64, n+1)
	rhs[n] = 1
	sol, err := solveLinear(kkt, rhs)
	if err != nil {
		return nil, 0, err
	}
	beta = sol[:n]
	value, err = quadForm(a, beta)
	return beta, value, err
}

func TestMatrixBasics(t *testing.T) {
	m := newMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 2, -2)
	if m.At(0, 1) != 5 || m.At(1, 2) != -2 || m.At(0, 0) != 0 {
		t.Error("Set/At broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Error("Clone aliases data")
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newMatrix(0, 3)
}

func TestMulVec(t *testing.T) {
	m := newMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y, err := m.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", y)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Error("expected shape error")
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	dot([]float64{1}, []float64{1, 2})
}

func TestVerificationMatrixProperties(t *testing.T) {
	for _, r := range []float64{0.2, 0.5, 0.8, 1} {
		for _, m := range []int{1, 2, 3, 7} {
			a, err := verificationMatrix(m, r)
			if err != nil {
				t.Fatal(err)
			}
			if !a.IsSymmetric(0) {
				t.Errorf("A(m=%d,r=%v) not symmetric", m, r)
			}
			for i := 0; i < m; i++ {
				if a.At(i, i) != 1 {
					t.Errorf("diagonal A[%d][%d] = %v, want 1", i, i, a.At(i, i))
				}
			}
			// Entries decay away from the diagonal for r<1.
			if m >= 3 && r < 1 && !(a.At(0, 1) > a.At(0, 2)) {
				t.Errorf("A entries should decay off-diagonal for r=%v", r)
			}
		}
	}
}

func TestVerificationMatrixGuaranteedCase(t *testing.T) {
	// r=1: off-diagonal entries are exactly 1/2.
	a, err := verificationMatrix(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.5
			if i == j {
				want = 1
			}
			if a.At(i, j) != want {
				t.Errorf("A[%d][%d] = %v, want %v", i, j, a.At(i, j), want)
			}
		}
	}
}

func TestVerificationMatrixValidation(t *testing.T) {
	if _, err := verificationMatrix(0, 0.5); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := verificationMatrix(3, 0); err == nil {
		t.Error("r=0 should fail")
	}
	if _, err := verificationMatrix(3, 1.5); err == nil {
		t.Error("r>1 should fail")
	}
}

func TestSolveLinearKnownSystem(t *testing.T) {
	a := newMatrix(3, 3)
	vals := [][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	x, err := solveLinear(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !xmath.Close(x[i], want[i], 1e-10) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := newMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := solveLinear(a, []float64{1, 2}); err != errSingular {
		t.Errorf("err = %v, want errSingular", err)
	}
}

func TestSolveLinearDoesNotMutate(t *testing.T) {
	a := newMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(1, 1, 2)
	b := []float64{8, 6}
	if _, err := solveLinear(a, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 4 || b[0] != 8 {
		t.Error("solveLinear mutated inputs")
	}
}

func TestSolveLinearRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.IntN(8)
		a := newMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonally dominant
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b, _ := a.MulVec(xTrue)
		x, err := solveLinear(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if !xmath.Close(x[i], xTrue[i], 1e-8) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestQuadFormSimple(t *testing.T) {
	a := newMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(1, 1, 3)
	v, err := quadForm(a, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if v != 14 {
		t.Errorf("quadForm = %v, want 14", v)
	}
}

// TestClosedFormBetaMatchesQP is the central cross-check of Theorem 3:
// production's closed-form chunk sizes (core.ChunkFractions) and f*
// (core.Fstar) must coincide with the numeric solution of
// min βᵀAβ subject to Σβ=1, on seeded random (m, r).
func TestClosedFormBetaMatchesQP(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 3))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.IntN(32)
		r := 1 - rng.Float64() // (0, 1]
		a, err := verificationMatrix(m, r)
		if err != nil {
			t.Fatal(err)
		}
		qpBeta, qpVal, err := minQuadFormSimplex(a)
		if err != nil {
			t.Fatalf("m=%d r=%v: %v", m, r, err)
		}
		if got := core.Fstar(m, r); !xmath.Close(qpVal, got, 1e-9) {
			t.Errorf("m=%d r=%v: QP value %v vs core.Fstar %v", m, r, qpVal, got)
		}
		edge, inner := core.ChunkFractions(m, r)
		for j, b := range qpBeta {
			want := inner
			if j == 0 || j == m-1 {
				want = edge
			}
			if !xmath.Close(b, want, 1e-7) {
				t.Errorf("m=%d r=%v: beta[%d] QP %v vs core.ChunkFractions %v", m, r, j, b, want)
			}
			if b <= 0 {
				t.Errorf("m=%d r=%v: QP beta[%d] = %v not interior", m, r, j, b)
			}
		}
	}
}

// TestQPIsActuallyMinimal perturbs the optimal β on the simplex and
// checks the quadratic form only increases.
func TestQPIsActuallyMinimal(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	a, _ := verificationMatrix(5, 0.7)
	beta, val, err := minQuadFormSimplex(a)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		pert := append([]float64(nil), beta...)
		// Zero-sum perturbation keeps Σβ = 1.
		i, j := rng.IntN(5), rng.IntN(5)
		if i == j {
			continue
		}
		eps := (rng.Float64() - 0.5) * 0.1
		pert[i] += eps
		pert[j] -= eps
		v, err := quadForm(a, pert)
		if err != nil {
			t.Fatal(err)
		}
		if v < val-1e-12 {
			t.Fatalf("found better point: %v < %v", v, val)
		}
	}
}

func TestMinQuadFormRejectsNonSquare(t *testing.T) {
	m := newMatrix(2, 3)
	if _, _, err := minQuadFormSimplex(m); err == nil {
		t.Error("expected shape error")
	}
}
