package adapt

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"respat/internal/faults"
)

// The piecewise-constant-rate source below is the drift scenario's
// fault source (drift_test.go); its own tests follow it.

// RateStep is one regime of a piecewise-constant-rate process: from
// exposure time Start (inclusive) onwards, arrivals occur at rate
// Lambda, until the next step's Start.
type RateStep struct {
	Start  float64 // exposure seconds at which this regime begins
	Lambda float64 // arrival rate during the regime (0 = quiescent)
}

// Piecewise samples an inhomogeneous Poisson process whose rate is
// piecewise constant in exposure time. It models platform drift for
// the drift scenario: a machine that degrades (or recovers)
// mid-campaign. Sampling is exact,
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
		return nil, fmt.Errorf("%w: piecewise needs at least one rate step", faults.ErrBadParam)
	}
	if steps[0].Start != 0 {
		return nil, fmt.Errorf("%w: first rate step must start at 0, got %v", faults.ErrBadParam, steps[0].Start)
	}
	for i, s := range steps {
		if s.Lambda < 0 || math.IsNaN(s.Lambda) || math.IsInf(s.Lambda, 0) {
			return nil, fmt.Errorf("%w: step %d lambda = %v", faults.ErrBadParam, i, s.Lambda)
		}
		if i > 0 && !(s.Start > steps[i-1].Start) {
			return nil, fmt.Errorf("%w: step starts must increase (step %d: %v after %v)",
				faults.ErrBadParam, i, s.Start, steps[i-1].Start)
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

func TestNewPiecewiseValidation(t *testing.T) {
	cases := []struct {
		name  string
		steps []RateStep
	}{
		{"empty", nil},
		{"nonzero first start", []RateStep{{Start: 1, Lambda: 1}}},
		{"negative rate", []RateStep{{Start: 0, Lambda: -1}}},
		{"NaN rate", []RateStep{{Start: 0, Lambda: math.NaN()}}},
		{"non-increasing starts", []RateStep{{Start: 0, Lambda: 1}, {Start: 0, Lambda: 2}}},
	}
	for _, tc := range cases {
		if _, err := NewPiecewise(tc.steps, 1, 2); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestPiecewiseSingleRegimeMatchesExponentialLaw(t *testing.T) {
	const lambda = 1e-2
	p, err := NewPiecewise([]RateStep{{Start: 0, Lambda: lambda}}, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	var now float64
	const n = 20000
	for i := 0; i < n; i++ {
		next := p.Next(now)
		if next <= now {
			t.Fatalf("arrival %v not after %v", next, now)
		}
		now = next
	}
	rate := n / now
	if rate < 0.95*lambda || rate > 1.05*lambda {
		t.Fatalf("empirical rate %v vs lambda %v", rate, lambda)
	}
}

func TestPiecewiseShiftsRateAtBoundary(t *testing.T) {
	const lo, hi, shift = 1e-3, 1e-1, 50_000.0
	p, err := NewPiecewise([]RateStep{
		{Start: 0, Lambda: lo}, {Start: shift, Lambda: hi},
	}, 9, 8)
	if err != nil {
		t.Fatal(err)
	}
	var now float64
	var before, after int
	for now < 2*shift {
		now = p.Next(now)
		if now < shift {
			before++
		} else if now < 2*shift {
			after++
		}
	}
	// Expected ~50 arrivals before the shift and ~5000 after.
	if before < 20 || before > 100 {
		t.Fatalf("arrivals before shift = %d, want ~50", before)
	}
	if after < 4000 || after > 6000 {
		t.Fatalf("arrivals after shift = %d, want ~5000", after)
	}
	if got := p.Rate(); got != hi {
		t.Fatalf("Rate() = %v, want final regime %v", got, hi)
	}
}

func TestPiecewiseZeroRateRegimes(t *testing.T) {
	// Quiescent head: nothing before 100, rate 1 after.
	p, err := NewPiecewise([]RateStep{
		{Start: 0, Lambda: 0}, {Start: 100, Lambda: 1},
	}, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if next := p.Next(0); next <= 100 {
		t.Fatalf("arrival %v inside the quiescent regime", next)
	}
	// Quiescent tail: no arrivals after 10.
	q, err := NewPiecewise([]RateStep{
		{Start: 0, Lambda: 1}, {Start: 10, Lambda: 0},
	}, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if next := q.Next(10); !math.IsInf(next, 1) {
		t.Fatalf("arrival %v after the process went quiescent, want +Inf", next)
	}
}

func TestPiecewiseDeterministicPerSeed(t *testing.T) {
	steps := []RateStep{{Start: 0, Lambda: 1e-2}, {Start: 1000, Lambda: 1e-1}}
	a, _ := NewPiecewise(steps, 11, 12)
	b, _ := NewPiecewise(steps, 11, 12)
	var now float64
	for i := 0; i < 1000; i++ {
		na, nb := a.Next(now), b.Next(now)
		if na != nb {
			t.Fatalf("arrival %d differs: %v vs %v", i, na, nb)
		}
		now = na
	}
}

func TestPiecewiseSubnormalRateTerminates(t *testing.T) {
	// A subnormal final-regime rate overflows the sampled gap to +Inf;
	// Next must return it (the source never fires again), not loop
	// resampling at the unbounded regime's end.
	p, err := NewPiecewise([]RateStep{{Start: 0, Lambda: 1e-310}}, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		next := p.Next(0)
		if math.IsInf(next, 1) {
			return // overflowed and returned, as it must
		}
		if next <= 0 {
			t.Fatalf("arrival %v, want > 0", next)
		}
	}
}
