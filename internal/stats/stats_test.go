package stats

import (
	"math"
	"math/rand/v2"
	"testing"

	"respat/internal/xmath"
)

func TestSampleMoments(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if !xmath.Close(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if !xmath.Close(s.Var(), 32.0/7.0, 1e-12) {
		t.Errorf("Var = %v, want %v", s.Var(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min,Max = %v,%v, want 2,9", s.Min(), s.Max())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Var() != 0 || s.StdErr() != 0 || s.CI95() != 0 {
		t.Error("empty sample should report zeros")
	}
}

func TestSampleString(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(3)
	if got := s.String(); got == "" {
		t.Error("String should be non-empty")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {0.9, 4.6},
	} {
		got, err := Quantiles(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !xmath.Close(got[0], c.want, 1e-12) {
			t.Errorf("Quantiles(%v) = %v, want %v", c.q, got[0], c.want)
		}
	}
	if _, err := Quantiles(nil, 0.5); err != ErrNoData {
		t.Errorf("err = %v, want ErrNoData", err)
	}
	if _, err := Quantiles(xs, 1.5); err == nil {
		t.Error("expected error for q out of range")
	}
}

// TestQuantiles asserts that one call for several quantiles agrees
// with one call per quantile and validates every q.
func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	qs := []float64{0, 0.25, 0.5, 0.75, 0.9, 1}
	got, err := Quantiles(xs, qs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := Quantiles(xs, q)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want[0] {
			t.Errorf("Quantiles[%v] = %v, alone %v", q, got[i], want[0])
		}
	}
	if _, err := Quantiles(xs, 0.5, 1.5); err == nil {
		t.Error("expected error for q out of range")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantiles(xs, 0.5, 0.9); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantiles mutated its input")
	}
}

func TestKSAcceptsCorrectDistribution(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	xs := make([]float64, 2000)
	lambda := 2.5
	for i := range xs {
		xs[i] = rng.ExpFloat64() / lambda
	}
	cdf := func(x float64) float64 { return 1 - math.Exp(-lambda*x) }
	d, p, err := KolmogorovSmirnov(xs, cdf)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.01 {
		t.Errorf("KS rejected correct exponential law: D=%v p=%v", d, p)
	}
}

func TestKSRejectsWrongDistribution(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() / 2.5
	}
	// Test against an exponential with a 2x wrong rate.
	cdf := func(x float64) float64 { return 1 - math.Exp(-5.0*x) }
	_, p, err := KolmogorovSmirnov(xs, cdf)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-4 {
		t.Errorf("KS failed to reject wrong law: p=%v", p)
	}
}

func TestKSEmpty(t *testing.T) {
	if _, _, err := KolmogorovSmirnov(nil, func(float64) float64 { return 0 }); err != ErrNoData {
		t.Errorf("err = %v, want ErrNoData", err)
	}
}

// TestStreamingAccumulatorsAllocationFree asserts that Sample.Add, the
// accumulation path the fleet reducer leans on, never allocates.
func TestStreamingAccumulatorsAllocationFree(t *testing.T) {
	var s Sample
	x := 0.123
	if n := testing.AllocsPerRun(1000, func() {
		s.Add(x)
		x = math.Mod(x*1.618, 1)
	}); n != 0 {
		t.Errorf("Sample.Add allocates %v times per call", n)
	}
}
