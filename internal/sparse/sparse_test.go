package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"respat/internal/xmath"
)

// The helpers below drive and inspect the production CG and CSR code
// in the tests: element access, a 1-D Poisson fixture, and a
// solve-to-tolerance loop over CGState.Step.

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Vals) }

// At returns element (i, j) (zero if not stored).
func (m *CSR) At(i, j int) float64 {
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		if m.ColIdx[k] == j {
			return m.Vals[k]
		}
	}
	return 0
}

// poisson1D returns the n×n tridiagonal [-1, 2, -1] matrix, the
// standard 1-D Poisson operator (symmetric positive definite).
func poisson1D(n int) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sparse: Poisson1D size %d", n)
	}
	entries := make([]Coord, 0, 3*n)
	for i := 0; i < n; i++ {
		entries = append(entries, Coord{i, i, 2})
		if i > 0 {
			entries = append(entries, Coord{i, i - 1, -1})
		}
		if i < n-1 {
			entries = append(entries, Coord{i, i + 1, -1})
		}
	}
	return NewCSR(n, n, entries)
}

// errNotConverged is returned by solve when the iteration budget is
// exhausted before the residual target is met.
var errNotConverged = errors.New("sparse: conjugate gradient did not converge")

// norm2 returns the Euclidean norm.
func norm2(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// solve runs CG until the true residual drops below tol·|b| or
// maxIter iterations elapse.
func solve(a *CSR, b []float64, tol float64, maxIter int) ([]float64, int, error) {
	s, err := NewCG(a, b)
	if err != nil {
		return nil, 0, err
	}
	target := tol * norm2(b)
	for it := 0; it < maxIter; it++ {
		rn, err := s.Step()
		if err != nil {
			return nil, s.Iter, err
		}
		if rn <= target {
			return s.X, s.Iter, nil
		}
	}
	return s.X, s.Iter, errNotConverged
}

func TestNewCSRBasics(t *testing.T) {
	m, err := NewCSR(2, 3, []Coord{{0, 0, 1}, {0, 2, 2}, {1, 1, 3}, {0, 0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3 (duplicates summed)", m.NNZ())
	}
	if m.At(0, 0) != 5 {
		t.Errorf("At(0,0) = %v, want 5 (1+4)", m.At(0, 0))
	}
	if m.At(0, 1) != 0 || m.At(1, 1) != 3 {
		t.Error("At misreads")
	}
}

func TestNewCSRValidation(t *testing.T) {
	if _, err := NewCSR(0, 1, nil); err == nil {
		t.Error("zero rows should fail")
	}
	if _, err := NewCSR(2, 2, []Coord{{2, 0, 1}}); err == nil {
		t.Error("out-of-range row should fail")
	}
	if _, err := NewCSR(2, 2, []Coord{{0, -1, 1}}); err == nil {
		t.Error("negative col should fail")
	}
}

func TestMulVec(t *testing.T) {
	m, err := NewCSR(2, 2, []Coord{{0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {1, 1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	y, err := m.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("MulVec = %v", y)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Error("shape mismatch should fail")
	}
}

func TestColumnChecksumInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.IntN(20), 1+rng.IntN(20)
		var entries []Coord
		for k := 0; k < rng.IntN(60); k++ {
			entries = append(entries, Coord{rng.IntN(rows), rng.IntN(cols), rng.NormFloat64()})
		}
		m, err := NewCSR(rows, cols, entries)
		if err != nil {
			t.Fatal(err)
		}
		cs := m.ColumnChecksums()
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y, err := m.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		var ySum, cx float64
		for _, v := range y {
			ySum += v
		}
		for j := range x {
			cx += cs[j] * x[j]
		}
		if !xmath.Close(ySum, cx, 1e-9) {
			t.Fatalf("checksum invariant broken: %v vs %v", ySum, cx)
		}
	}
}

func TestCheckedMulVecDetectsCorruption(t *testing.T) {
	m, err := poisson1D(50)
	if err != nil {
		t.Fatal(err)
	}
	cs := m.ColumnChecksums()
	x := make([]float64, 50)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	y, ok, err := m.CheckedMulVec(x, cs, 1e-10)
	if err != nil || !ok {
		t.Fatalf("clean product flagged: ok=%v err=%v", ok, err)
	}
	// Corrupt the checksum vector to emulate a corrupted operand; the
	// invariant must break.
	csBad := append([]float64(nil), cs...)
	csBad[9] += 1.5 // x[9] = -1, so the checksum product shifts by -1.5
	_, ok, err = m.CheckedMulVec(x, csBad, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("corruption not detected")
	}
	_ = y
	if _, _, err := m.CheckedMulVec(x, cs[:3], 1e-10); err == nil {
		t.Error("short checksum vector should fail")
	}
}

func TestPoisson1DStructure(t *testing.T) {
	m, err := poisson1D(4)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3*4-2 {
		t.Errorf("NNZ = %d, want 10", m.NNZ())
	}
	if m.At(0, 0) != 2 || m.At(1, 0) != -1 || m.At(0, 1) != -1 || m.At(0, 2) != 0 {
		t.Error("Poisson1D entries wrong")
	}
	if _, err := poisson1D(0); err == nil {
		t.Error("size 0 should fail")
	}
}

func TestPoisson2DStructure(t *testing.T) {
	m, err := Poisson2D(3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 9 || m.Cols != 9 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	// Centre point has 4 neighbours.
	if m.At(4, 4) != 4 || m.At(4, 1) != -1 || m.At(4, 3) != -1 || m.At(4, 5) != -1 || m.At(4, 7) != -1 {
		t.Error("centre stencil wrong")
	}
	// Corner has 2 neighbours.
	if m.At(0, 0) != 4 || m.At(0, 1) != -1 || m.At(0, 3) != -1 || m.At(0, 4) != 0 {
		t.Error("corner stencil wrong")
	}
	if _, err := Poisson2D(-1); err == nil {
		t.Error("negative size should fail")
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %v", Dot(a, b))
	}
	if !xmath.Close(norm2([]float64{3, 4}), 5, 1e-12) {
		t.Error("Norm2 wrong")
	}
	y := []float64{1, 1}
	Axpy(2, []float64{10, 20}, y)
	if y[0] != 21 || y[1] != 41 {
		t.Errorf("Axpy = %v", y)
	}
}

func TestCGSolvesPoisson1D(t *testing.T) {
	n := 64
	a, err := poisson1D(n)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = math.Sin(float64(i) / 5)
	}
	b, err := a.MulVec(xTrue)
	if err != nil {
		t.Fatal(err)
	}
	x, iters, err := solve(a, b, 1e-10, 10*n)
	if err != nil {
		t.Fatalf("after %d iters: %v", iters, err)
	}
	for i := range x {
		if !xmath.Close(x[i], xTrue[i], 1e-6) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
	// CG on an SPD n×n system converges in at most n exact-arithmetic
	// iterations; allow slack for floating point.
	if iters > 2*n {
		t.Errorf("CG took %d iterations", iters)
	}
}

func TestCGSolvesPoisson2D(t *testing.T) {
	a, err := Poisson2D(12)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x, _, err := solve(a, b, 1e-9, 4*a.Rows)
	if err != nil {
		t.Fatal(err)
	}
	// Verify the residual directly.
	ax, _ := a.MulVec(x)
	var res float64
	for i := range ax {
		d := b[i] - ax[i]
		res += d * d
	}
	if math.Sqrt(res) > 1e-8*norm2(b)+1e-12 {
		t.Errorf("residual %v too large", math.Sqrt(res))
	}
}

func TestCGValidation(t *testing.T) {
	a, _ := NewCSR(2, 3, nil)
	if _, err := NewCG(a, []float64{1, 2}); err == nil {
		t.Error("non-square should fail")
	}
	sq, _ := NewCSR(2, 2, []Coord{{0, 0, 1}, {1, 1, 1}})
	if _, err := NewCG(sq, []float64{1}); err == nil {
		t.Error("rhs mismatch should fail")
	}
}

func TestCGNotConverged(t *testing.T) {
	a, err := poisson1D(100)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 100)
	b[0] = 1
	if _, _, err := solve(a, b, 1e-14, 2); err != errNotConverged {
		t.Errorf("err = %v, want errNotConverged", err)
	}
}

func TestRecurrenceDriftDetectsCorruption(t *testing.T) {
	a, err := poisson1D(64)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 64)
	for i := range b {
		b[i] = 1
	}
	s, err := NewCG(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	drift, err := s.RecurrenceDrift()
	if err != nil {
		t.Fatal(err)
	}
	if drift > 1e-8 {
		t.Fatalf("clean drift %v too large", drift)
	}
	// Corrupt the iterate (a silent error in X breaks the recurrence
	// invariant between R and b - A·x).
	s.X[20] += 1.0
	drift, err = s.RecurrenceDrift()
	if err != nil {
		t.Fatal(err)
	}
	if drift < 1e-3 {
		t.Errorf("corruption drift %v too small to detect", drift)
	}
}

func TestResidualNormMatchesRecurrence(t *testing.T) {
	a, err := poisson1D(32)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 32)
	b[3] = 2
	s, err := NewCG(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		rn, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		true_, err := s.ResidualNorm()
		if err != nil {
			t.Fatal(err)
		}
		if !xmath.Close(rn, true_, 1e-6) {
			t.Fatalf("iter %d: recurrence %v vs true %v", i, rn, true_)
		}
	}
}

func TestCSRPropertyRandomMulMatchesDense(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0xdead))
		n := 1 + rng.IntN(12)
		dense := make([][]float64, n)
		var entries []Coord
		for i := range dense {
			dense[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.3 {
					v := rng.NormFloat64()
					dense[i][j] = v
					entries = append(entries, Coord{i, j, v})
				}
			}
		}
		m, err := NewCSR(n, n, entries)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y, err := m.MulVec(x)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var want float64
			for j := 0; j < n; j++ {
				want += dense[i][j] * x[j]
			}
			if !xmath.Close(y[i], want, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
