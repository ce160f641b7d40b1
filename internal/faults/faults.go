// Package faults is the error-arrival substrate of respat. It generates
// the fail-stop and silent-error arrival processes of the paper's
// failure model (Section 2.1): independent Poisson processes with rates
// λf and λs, sampled as exponential inter-arrival gaps. Beyond the
// paper's exponential assumption the package also provides Weibull and
// log-normal generators (for robustness ablations) and deterministic
// trace replay (for engine tests and reproducible injections).
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// ErrBadParam reports an invalid distribution parameter.
var ErrBadParam = errors.New("faults: invalid parameter")

// Source produces successive arrival times of a point process, in
// seconds of *exposure time* (the clock only ticks while the protected
// activity runs). Implementations need not be safe for concurrent use;
// the simulator gives each worker its own Source.
type Source interface {
	// Next returns the absolute time of the next arrival strictly after
	// time now. Implementations must be monotone: Next(now) > now.
	Next(now float64) float64
	// Rate returns the long-run arrival rate (arrivals per second), or 0
	// if the process has no constant rate (e.g. trace replay).
	Rate() float64
}

// Clock drives a Source on an exposure clock: it accumulates exposure
// only while an activity the source can strike is running, which
// realises "errors strike computations" for arbitrary renewal
// processes, not just the memoryless exponential.
type Clock struct {
	src      Source
	exposure float64 // accumulated exposure seconds
	next     float64 // next arrival on the exposure clock
}

// NewClock starts a clock for src at zero exposure.
func NewClock(src Source) Clock { return Clock{src: src, next: src.Next(0)} }

// Within reports the exposure distance to the next arrival and whether
// it falls inside the next d units of exposure.
func (c *Clock) Within(d float64) (float64, bool) {
	dt := c.next - c.exposure
	return dt, dt <= d
}

// Advance consumes d units of exposure known to contain no arrival.
func (c *Clock) Advance(d float64) { c.exposure += d }

// Consume advances to the pending arrival and schedules the next one.
func (c *Clock) Consume() {
	c.exposure = c.next
	c.next = c.src.Next(c.exposure)
}

// Exposure returns the accumulated exposure seconds.
func (c *Clock) Exposure() float64 { return c.exposure }

// Never is a Source that never produces an arrival.
type Never struct{}

// Next returns +Inf.
func (Never) Next(float64) float64 { return math.Inf(1) }

// Rate returns 0.
func (Never) Rate() float64 { return 0 }

// Exponential samples a homogeneous Poisson process with rate Lambda
// using memoryless exponential gaps. This is the paper's failure model.
type Exponential struct {
	Lambda float64
	Rng    *rand.Rand
}

// NewExponential returns an exponential Source with rate lambda >= 0,
// seeded deterministically from (seed1, seed2). A zero rate yields a
// process that never fires.
func NewExponential(lambda float64, seed1, seed2 uint64) (*Exponential, error) {
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return nil, fmt.Errorf("%w: lambda = %v", ErrBadParam, lambda)
	}
	return &Exponential{Lambda: lambda, Rng: rand.New(rand.NewPCG(seed1, seed2))}, nil
}

// Next returns now + Exp(Lambda).
func (e *Exponential) Next(now float64) float64 {
	if e.Lambda == 0 {
		return math.Inf(1)
	}
	return now + e.Rng.ExpFloat64()/e.Lambda
}

// Rate returns Lambda.
func (e *Exponential) Rate() float64 { return e.Lambda }

// Weibull samples inter-arrival gaps from a Weibull(shape k, scale λ)
// law via inverse-CDF. With k=1 it degenerates to the exponential; with
// k<1 it exhibits the infant-mortality clustering observed on real
// machines, a standard robustness ablation for checkpointing models.
type Weibull struct {
	Shape float64 // k
	Scale float64 // λ (seconds)
	Rng   *rand.Rand
}

// NewWeibull returns a Weibull Source with shape k > 0 and scale > 0.
func NewWeibull(shape, scale float64, seed1, seed2 uint64) (*Weibull, error) {
	if shape <= 0 || scale <= 0 || math.IsNaN(shape) || math.IsNaN(scale) {
		return nil, fmt.Errorf("%w: weibull shape=%v scale=%v", ErrBadParam, shape, scale)
	}
	return &Weibull{Shape: shape, Scale: scale, Rng: rand.New(rand.NewPCG(seed1, seed2))}, nil
}

// Next returns now plus a Weibull-distributed gap.
func (w *Weibull) Next(now float64) float64 {
	u := w.Rng.Float64()
	for u == 0 {
		u = w.Rng.Float64()
	}
	return now + w.Scale*math.Pow(-math.Log(u), 1/w.Shape)
}

// Rate returns the reciprocal of the mean gap, 1/(scale·Γ(1+1/k)).
func (w *Weibull) Rate() float64 {
	return 1 / (w.Scale * math.Gamma(1+1/w.Shape))
}

// LogNormal samples inter-arrival gaps from a log-normal law with the
// given parameters of the underlying normal (mu, sigma).
type LogNormal struct {
	Mu    float64
	Sigma float64
	Rng   *rand.Rand
}

// NewLogNormal returns a log-normal Source; sigma must be positive.
func NewLogNormal(mu, sigma float64, seed1, seed2 uint64) (*LogNormal, error) {
	if sigma <= 0 || math.IsNaN(mu) || math.IsNaN(sigma) {
		return nil, fmt.Errorf("%w: lognormal mu=%v sigma=%v", ErrBadParam, mu, sigma)
	}
	return &LogNormal{Mu: mu, Sigma: sigma, Rng: rand.New(rand.NewPCG(seed1, seed2))}, nil
}

// Next returns now plus a log-normal gap.
func (l *LogNormal) Next(now float64) float64 {
	return now + math.Exp(l.Mu+l.Sigma*l.Rng.NormFloat64())
}

// Rate returns the reciprocal mean gap, exp(-(mu+sigma^2/2)).
func (l *LogNormal) Rate() float64 {
	return math.Exp(-(l.Mu + l.Sigma*l.Sigma/2))
}

// RateStep is one regime of a piecewise-constant-rate process: from
// exposure time Start (inclusive) onwards, arrivals occur at rate
// Lambda, until the next step's Start.
type RateStep struct {
	Start  float64 // exposure seconds at which this regime begins
	Lambda float64 // arrival rate during the regime (0 = quiescent)
}

// Piecewise samples an inhomogeneous Poisson process whose rate is
// piecewise constant in exposure time. It models platform drift: a
// machine that degrades (or recovers) mid-campaign. Sampling is exact,
// not thinned: within a regime gaps are memoryless exponentials, and a
// gap that would cross into the next regime is discarded at the
// boundary and resampled at the new rate — valid precisely because the
// exponential law is memoryless.
type Piecewise struct {
	steps []RateStep
	rng   *rand.Rand
}

// NewPiecewise returns a piecewise-constant-rate Source. Steps must be
// non-empty, start at 0, have strictly increasing Start times and
// finite non-negative rates.
func NewPiecewise(steps []RateStep, seed1, seed2 uint64) (*Piecewise, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("%w: piecewise needs at least one rate step", ErrBadParam)
	}
	if steps[0].Start != 0 {
		return nil, fmt.Errorf("%w: first rate step must start at 0, got %v", ErrBadParam, steps[0].Start)
	}
	for i, s := range steps {
		if s.Lambda < 0 || math.IsNaN(s.Lambda) || math.IsInf(s.Lambda, 0) {
			return nil, fmt.Errorf("%w: step %d lambda = %v", ErrBadParam, i, s.Lambda)
		}
		if i > 0 && !(s.Start > steps[i-1].Start) {
			return nil, fmt.Errorf("%w: step starts must increase (step %d: %v after %v)",
				ErrBadParam, i, s.Start, steps[i-1].Start)
		}
	}
	cp := append([]RateStep(nil), steps...)
	return &Piecewise{steps: cp, rng: rand.New(rand.NewPCG(seed1, seed2))}, nil
}

// Next returns the first arrival strictly after now.
func (p *Piecewise) Next(now float64) float64 {
	t := now
	for {
		i := p.stepAt(t)
		end := math.Inf(1)
		if i+1 < len(p.steps) {
			end = p.steps[i+1].Start
		}
		lambda := p.steps[i].Lambda
		if lambda == 0 {
			if math.IsInf(end, 1) {
				return math.Inf(1)
			}
			t = end
			continue
		}
		next := t + p.rng.ExpFloat64()/lambda
		if next < end || math.IsInf(end, 1) {
			// The final regime has no boundary to resample at: return
			// the sample even when it overflowed to +Inf (a subnormal
			// rate), meaning the source never fires again — looping
			// would resample +Inf forever.
			return next
		}
		t = end // memoryless: restart the clock at the regime boundary
	}
}

// stepAt returns the index of the regime containing exposure time t.
func (p *Piecewise) stepAt(t float64) int {
	i := sort.Search(len(p.steps), func(j int) bool { return p.steps[j].Start > t })
	if i == 0 {
		return 0
	}
	return i - 1
}

// Rate returns the rate of the final regime, the process's long-run
// arrival rate.
func (p *Piecewise) Rate() float64 { return p.steps[len(p.steps)-1].Lambda }

// Trace replays a fixed, sorted sequence of absolute arrival times.
// After the trace is exhausted it never fires again. It makes engine
// and simulator behaviour exactly reproducible in tests.
type Trace struct {
	times []float64
	idx   int
}

// NewTrace copies and sorts the arrival times, dropping non-finite
// entries, and returns a replaying Source.
func NewTrace(times []float64) *Trace {
	ts := make([]float64, 0, len(times))
	for _, t := range times {
		if !math.IsNaN(t) && !math.IsInf(t, 0) {
			ts = append(ts, t)
		}
	}
	sort.Float64s(ts)
	return &Trace{times: ts}
}

// Next returns the first recorded arrival strictly after now.
func (t *Trace) Next(now float64) float64 {
	// The cursor only moves forward; simulator clocks are monotone.
	for t.idx < len(t.times) && t.times[t.idx] <= now {
		t.idx++
	}
	// Scan without consuming: Next may be called repeatedly with
	// decreasing `now` after a rollback, so search from the cursor.
	i := sort.SearchFloat64s(t.times, math.Nextafter(now, math.Inf(1)))
	if i < len(t.times) {
		return t.times[i]
	}
	return math.Inf(1)
}

// Rate returns 0: a trace has no constant rate.
func (t *Trace) Rate() float64 { return 0 }

// Reset rewinds the trace to the beginning.
func (t *Trace) Reset() { t.idx = 0 }

// Len returns the number of arrivals in the trace.
func (t *Trace) Len() int { return len(t.times) }

// Bernoulli draws with probability p using a dedicated stream; it backs
// the partial-verification detection decision (recall r).
type Bernoulli struct {
	Rng *rand.Rand
}

// NewBernoulli returns a deterministic Bernoulli stream.
func NewBernoulli(seed1, seed2 uint64) *Bernoulli {
	return &Bernoulli{Rng: rand.New(rand.NewPCG(seed1, seed2))}
}

// Hit returns true with probability p.
func (b *Bernoulli) Hit(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return b.Rng.Float64() < p
}

// SplitSeed derives a child seed pair from a base seed and a stream
// index, using SplitMix64 so that distinct workers and distinct error
// processes get decorrelated deterministic streams.
func SplitSeed(base uint64, stream uint64) (uint64, uint64) {
	a := splitmix64(base + 0x9e3779b97f4a7c15*stream)
	b := splitmix64(a ^ 0xbf58476d1ce4e5b9)
	return a, b
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
