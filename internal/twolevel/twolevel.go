// Package twolevel implements the comparator protocol the paper
// contrasts itself against (Section 4.1 remark, Section 7.1): classic
// two-level checkpointing for *two levels of fail-stop errors* in the
// style of Vaidya and Di et al. Errors arrive at rate λ and are
// "local" with probability q — recoverable from a cheap local
// checkpoint — or "global" otherwise, destroying the local state and
// forcing a disk recovery plus a full pattern re-execution.
//
// Unlike the paper's fail-stop + silent combination, this protocol has
// no known closed-form optimum: both error levels interrupt the
// execution, so the analysis must condition on which level strikes
// first. The package therefore provides an exact numeric
// expected-time evaluator (a renewal recursion), a numeric optimiser
// over the period W and the number of local intervals n — the
// "sophisticated heuristics" route of the literature; a Monte-Carlo
// simulator in the tests validates the evaluator. Contrasting
// Optimize here with analytic.Optimal makes the paper's structural
// point executable.
package twolevel

import (
	"fmt"
	"math"

	"respat/internal/analytic"
	"respat/internal/xmath"
)

// Params describes the two-level fail-stop protocol.
type Params struct {
	Lambda     float64 // total fail-stop error rate (/s)
	LocalShare float64 // q: probability an error is local, in [0,1]
	LocalCkpt  float64 // CL: local checkpoint cost (s)
	DiskCkpt   float64 // CD: disk checkpoint cost (s)
	LocalRec   float64 // RL: local recovery cost (s)
	DiskRec    float64 // RD: disk recovery cost (s)
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Lambda < 0 || math.IsNaN(p.Lambda) || math.IsInf(p.Lambda, 0) {
		return fmt.Errorf("twolevel: lambda = %v", p.Lambda)
	}
	if p.LocalShare < 0 || p.LocalShare > 1 || math.IsNaN(p.LocalShare) {
		return fmt.Errorf("twolevel: local share = %v", p.LocalShare)
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"CL", p.LocalCkpt}, {"CD", p.DiskCkpt}, {"RL", p.LocalRec}, {"RD", p.DiskRec},
	} {
		if c.v < 0 || math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("twolevel: %s = %v", c.name, c.v)
		}
	}
	return nil
}

// ExpectedTime evaluates the exact expected time of one pattern: n
// equal intervals of W/n work, each closed by a local checkpoint, the
// pattern closed by a disk checkpoint. A local error loses the current
// interval (local recovery RL); a global error loses the pattern (disk
// recovery RD plus replay of all committed intervals). Checkpoints are
// failure-free, matching the Sections 3-4 assumption of the paper.
func ExpectedTime(p Params, w float64, n int) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if w <= 0 || n <= 0 {
		return 0, fmt.Errorf("twolevel: W=%v n=%d", w, n)
	}
	u := w / float64(n)
	prob := -math.Expm1(-p.Lambda * u) // P(error during one interval attempt)
	if prob >= 1 {
		return math.Inf(1), nil
	}
	lost := analytic.ExpectedLost(p.Lambda, u)
	var total, prevSum float64
	for i := 0; i < n; i++ {
		// Renewal: E_i = (1-p)(u+CL) + p·[lost + q·RL + (1-q)(RD+prev)] + p·E_i.
		attempt := (1-prob)*(u+p.LocalCkpt) +
			prob*(lost+p.LocalShare*p.LocalRec+(1-p.LocalShare)*(p.DiskRec+prevSum))
		ei := attempt / (1 - prob)
		total += ei
		prevSum += ei
	}
	return total + p.DiskCkpt, nil
}

// Plan is the numerically optimised two-level configuration.
type Plan struct {
	W        float64
	N        int
	Overhead float64 // expected overhead E/W - 1 at the optimum
}

// String renders the plan.
func (p Plan) String() string {
	return fmt.Sprintf("two-level: W*=%.6gs n*=%d H*=%.4f", p.W, p.N, p.Overhead)
}

// Optimize searches the (W, n) space numerically: ternary search over
// the convex integer n with an inner golden-section over W. There is
// no closed form to seed from, so the W bracket comes from the
// Young/Daly scale √(2·CD/λ).
func Optimize(p Params) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	if p.Lambda == 0 {
		return Plan{}, fmt.Errorf("twolevel: zero error rate has no finite optimum")
	}
	scale := math.Sqrt(2 * math.Max(p.DiskCkpt, 1e-6) / p.Lambda)
	overheadAt := func(n int) (float64, float64) {
		w, h := xmath.MinimizeGolden(func(w float64) float64 {
			e, err := ExpectedTime(p, w, n)
			if err != nil || math.IsInf(e, 1) {
				return math.Inf(1)
			}
			return e/w - 1
		}, scale/100, scale*100, 1e-10)
		return w, h
	}
	bestN, _ := xmath.MinimizeConvexInt(func(n int) float64 {
		_, h := overheadAt(n)
		return h
	}, 1, 1024)
	w, h := overheadAt(bestN)
	if math.IsInf(h, 1) || math.IsNaN(h) {
		return Plan{}, fmt.Errorf("twolevel: optimisation diverged")
	}
	return Plan{W: w, N: bestN, Overhead: h}, nil
}

// Comparison sets the optimised two-level protocol against the
// single-level disk-only baseline on a rate-matched configuration —
// the executable form of the Section 4.1 remark: how much does the
// cheap local level buy once both protocols are optimised under the
// same exact model?
type Comparison struct {
	// TwoLevel is the optimised two-level plan.
	TwoLevel Plan
	// SingleLevel is the optimised disk-only plan (n = 1, no local
	// checkpoints, every error pays the disk recovery), evaluated
	// under the same exact renewal recursion.
	SingleLevel Plan
	// Gain is the relative overhead reduction,
	// 1 - TwoLevel.Overhead/SingleLevel.Overhead.
	Gain float64
}

// String renders the comparison.
func (c Comparison) String() string {
	return fmt.Sprintf("two-level H*=%.4f vs single-level H*=%.4f (gain %.1f%%)",
		c.TwoLevel.Overhead, c.SingleLevel.Overhead, 100*c.Gain)
}

// Compare optimises the two-level protocol and its disk-only
// degeneration (local share 0, zero-cost local level, n = 1) for the
// same error rate and reports the gain of the local level.
func Compare(p Params) (Comparison, error) {
	two, err := Optimize(p)
	if err != nil {
		return Comparison{}, err
	}
	// The disk-only baseline is the protocol with the local level
	// stripped: all errors are global and only the interval count n = 1
	// makes sense (extra zero-cost local checkpoints change nothing).
	base := Params{Lambda: p.Lambda, LocalShare: 0, DiskCkpt: p.DiskCkpt, DiskRec: p.DiskRec}
	scale := math.Sqrt(2 * math.Max(base.DiskCkpt, 1e-6) / base.Lambda)
	w, h := xmath.MinimizeGolden(func(w float64) float64 {
		e, err := ExpectedTime(base, w, 1)
		if err != nil || math.IsInf(e, 1) {
			return math.Inf(1)
		}
		return e/w - 1
	}, scale/100, scale*100, 1e-10)
	if math.IsInf(h, 1) || math.IsNaN(h) {
		return Comparison{}, fmt.Errorf("twolevel: single-level baseline diverged")
	}
	cmp := Comparison{TwoLevel: two, SingleLevel: Plan{W: w, N: 1, Overhead: h}}
	if h > 0 {
		cmp.Gain = 1 - two.Overhead/h
	}
	return cmp, nil
}
