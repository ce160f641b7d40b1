// Package stats provides the descriptive statistics used to aggregate
// Monte-Carlo simulation outputs: running moments, confidence
// intervals, quantiles, and the Kolmogorov-Smirnov goodness-of-fit test
// that faultfit uses to check a fitted error law against its trace.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"respat/internal/xmath"
)

// ErrNoData is returned when a statistic is requested from an empty sample.
var ErrNoData = errors.New("stats: no data")

// Sample accumulates streaming moments using Welford's algorithm, which
// is numerically stable for long accumulations.
type Sample struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Sample) N() int64 { return s.n }

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance.
func (s *Sample) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Sample) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation.
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.max }

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// CI95 returns the normal-approximation 95% confidence half-width of the
// mean. For the n >= 100 runs used in the experiments the normal
// approximation is adequate.
func (s *Sample) CI95() float64 { return 1.959963984540054 * s.StdErr() }

// String formats the sample as "mean ± ci95 [min,max] (n)".
func (s *Sample) String() string {
	return fmt.Sprintf("%.6g ± %.2g [%.6g,%.6g] (n=%d)", s.Mean(), s.CI95(), s.min, s.max, s.n)
}

// Quantiles returns the qs quantiles of xs, each by linear
// interpolation between order statistics. The data is sorted once, not
// once per quantile, which is what the fleet report and the load
// generator want when reporting p50/p90/p99 of one sample. Each qs[i]
// must be in [0, 1]; xs need not be sorted and is not modified.
func Quantiles(xs []float64, qs ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrNoData
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 || q > 1 {
			return nil, fmt.Errorf("stats: quantile %v out of [0,1]", q)
		}
		pos := q * float64(len(sorted)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			out[i] = sorted[lo]
			continue
		}
		frac := pos - float64(lo)
		out[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return out, nil
}

// KolmogorovSmirnov computes the one-sample KS statistic D of xs against
// the continuous CDF cdf, and an approximate p-value via the asymptotic
// Kolmogorov distribution. faultfit uses it to check a fitted law
// against the observed gaps; the faults tests use it to check that the
// generators sample the advertised law.
func KolmogorovSmirnov(xs []float64, cdf func(float64) float64) (d, p float64, err error) {
	n := len(xs)
	if n == 0 {
		return 0, 0, ErrNoData
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, x := range sorted {
		f := cdf(x)
		up := float64(i+1)/float64(n) - f
		down := f - float64(i)/float64(n)
		if up > d {
			d = up
		}
		if down > d {
			d = down
		}
	}
	p = ksPValue(d, n)
	return d, p, nil
}

// ksPValue approximates P(D_n > d) with the Kolmogorov asymptotic series
// evaluated at sqrt(n)*d with the Stephens small-sample correction.
func ksPValue(d float64, n int) float64 {
	sn := math.Sqrt(float64(n))
	t := (sn + 0.12 + 0.11/sn) * d
	if t < 1e-6 {
		return 1
	}
	// P = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 t^2)
	var sum xmath.Accumulator
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*t*t)
		sum.Add(term)
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum.Value()
	return xmath.Clamp(p, 0, 1)
}
