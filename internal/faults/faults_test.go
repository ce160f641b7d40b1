package faults

import (
	"math"
	"testing"
	"testing/quick"

	"respat/internal/stats"
	"respat/internal/xmath"
)

func TestNever(t *testing.T) {
	var n Never
	if !math.IsInf(n.Next(0), 1) || !math.IsInf(n.Next(1e12), 1) {
		t.Error("Never should return +Inf")
	}
	if n.Rate() != 0 {
		t.Error("Never rate should be 0")
	}
}

func TestExponentialParamValidation(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := NewExponential(bad, 1, 2); err == nil {
			t.Errorf("NewExponential(%v) should fail", bad)
		}
	}
	e, err := NewExponential(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(e.Next(3), 1) {
		t.Error("zero-rate exponential should never fire")
	}
}

func TestExponentialMoments(t *testing.T) {
	lambda := 1.0 / 300.0
	e, err := NewExponential(lambda, 42, 43)
	if err != nil {
		t.Fatal(err)
	}
	var s stats.Sample
	now := 0.0
	for i := 0; i < 20000; i++ {
		next := e.Next(now)
		s.Add(next - now)
		now = next
	}
	mean := 1 / lambda
	if math.Abs(s.Mean()-mean) > 4*s.StdErr()+mean*0.02 {
		t.Errorf("mean gap = %v, want ~%v", s.Mean(), mean)
	}
	// Exponential: std == mean.
	if math.Abs(s.Std()-mean)/mean > 0.05 {
		t.Errorf("std gap = %v, want ~%v", s.Std(), mean)
	}
}

func TestExponentialKS(t *testing.T) {
	lambda := 2.0
	e, _ := NewExponential(lambda, 7, 8)
	xs := make([]float64, 3000)
	now := 0.0
	for i := range xs {
		next := e.Next(now)
		xs[i] = next - now
		now = next
	}
	cdf := func(x float64) float64 { return 1 - math.Exp(-lambda*x) }
	d, p, err := stats.KolmogorovSmirnov(xs, cdf)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.005 {
		t.Errorf("KS rejects exponential sampler: D=%v p=%v", d, p)
	}
}

func TestExponentialMonotone(t *testing.T) {
	e, _ := NewExponential(10, 1, 1)
	f := func(now float64) bool {
		if math.IsNaN(now) || math.IsInf(now, 0) {
			return true
		}
		// Clamp to a realistic simulation horizon (~30k years in
		// seconds); beyond float64 granularity now+gap can equal now.
		now = math.Mod(math.Abs(now), 1e12)
		return e.Next(now) > now
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExponentialDeterministicBySeed(t *testing.T) {
	a, _ := NewExponential(0.5, 11, 12)
	b, _ := NewExponential(0.5, 11, 12)
	now := 0.0
	for i := 0; i < 100; i++ {
		na, nb := a.Next(now), b.Next(now)
		if na != nb {
			t.Fatalf("streams diverge at step %d: %v vs %v", i, na, nb)
		}
		now = na
	}
}

func TestWeibullValidation(t *testing.T) {
	if _, err := NewWeibull(0, 1, 1, 2); err == nil {
		t.Error("shape 0 should fail")
	}
	if _, err := NewWeibull(1, -1, 1, 2); err == nil {
		t.Error("negative scale should fail")
	}
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	// With k=1, Weibull(1, scale) gaps are Exp(1/scale).
	scale := 100.0
	w, err := NewWeibull(1, scale, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !xmath.Close(w.Rate(), 1/scale, 1e-9) {
		t.Errorf("Rate = %v, want %v", w.Rate(), 1/scale)
	}
	xs := make([]float64, 3000)
	now := 0.0
	for i := range xs {
		next := w.Next(now)
		xs[i] = next - now
		now = next
	}
	cdf := func(x float64) float64 { return 1 - math.Exp(-x/scale) }
	_, p, err := stats.KolmogorovSmirnov(xs, cdf)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.005 {
		t.Errorf("Weibull(1) sampler rejected as exponential: p=%v", p)
	}
}

func TestWeibullMeanMatchesRate(t *testing.T) {
	w, err := NewWeibull(0.7, 1000, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	var s stats.Sample
	now := 0.0
	for i := 0; i < 30000; i++ {
		next := w.Next(now)
		s.Add(next - now)
		now = next
	}
	want := 1 / w.Rate()
	if math.Abs(s.Mean()-want)/want > 0.05 {
		t.Errorf("mean gap = %v, want ~%v", s.Mean(), want)
	}
}

func TestTraceReplay(t *testing.T) {
	tr := NewTrace([]float64{5, 1, 3, math.NaN(), math.Inf(1)})
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if got := tr.Next(0); got != 1 {
		t.Errorf("Next(0) = %v, want 1", got)
	}
	if got := tr.Next(1); got != 3 {
		t.Errorf("Next(1) = %v, want 3", got)
	}
	if got := tr.Next(4.5); got != 5 {
		t.Errorf("Next(4.5) = %v, want 5", got)
	}
	if got := tr.Next(5); !math.IsInf(got, 1) {
		t.Errorf("Next(5) = %v, want +Inf", got)
	}
	// Rollback: asking with an earlier now must still work.
	if got := tr.Next(2); got != 3 {
		t.Errorf("Next(2) after forward scan = %v, want 3", got)
	}
	tr.Reset()
	if got := tr.Next(0); got != 1 {
		t.Errorf("Next(0) after Reset = %v, want 1", got)
	}
}

func TestBernoulli(t *testing.T) {
	b := NewBernoulli(21, 22)
	if b.Hit(0) {
		t.Error("Hit(0) must be false")
	}
	if !b.Hit(1) {
		t.Error("Hit(1) must be true")
	}
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if b.Hit(0.8) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.8) > 0.02 {
		t.Errorf("empirical p = %v, want ~0.8", frac)
	}
}

func TestSplitSeedDecorrelates(t *testing.T) {
	seen := map[uint64]bool{}
	for stream := uint64(0); stream < 1000; stream++ {
		a, b := SplitSeed(12345, stream)
		if seen[a] {
			t.Fatalf("seed collision at stream %d", stream)
		}
		seen[a] = true
		if a == b {
			t.Fatalf("seed halves identical at stream %d", stream)
		}
	}
	// Same inputs give same outputs.
	a1, b1 := SplitSeed(9, 3)
	a2, b2 := SplitSeed(9, 3)
	if a1 != a2 || b1 != b2 {
		t.Error("SplitSeed is not deterministic")
	}
}
