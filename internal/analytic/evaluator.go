package analytic

import (
	"fmt"
	"math"

	"respat/internal/core"
	"respat/internal/xmath"
)

// Evaluator evaluates exact renewal-equation expected times for one
// fixed (costs, rates) configuration. It validates the configuration
// once at construction, so planners that probe many pattern lengths —
// e.g. the leaf W search of optimize.Exact, ~14 probes from the
// first-order period — pay for validation once.
//
// The fast path exploits the structure of the optimal interior layout:
// all n segments are equal, and the Theorem 3 chunk row has only two
// distinct sizes (first = last, interior equal). Per probe it therefore
// needs a constant number of exp/expm1 evaluations; the remaining
// per-chunk recurrences are plain arithmetic. Arbitrary patterns are
// handled by ExpectedTime, which shares the validated configuration but
// walks every chunk.
//
// An Evaluator is immutable after NewEvaluator and safe for concurrent
// use.
type Evaluator struct {
	costs core.Costs
	rates core.Rates
}

// NewEvaluator validates the costs and rates once and returns an
// evaluator bound to them.
func NewEvaluator(c core.Costs, r core.Rates) (*Evaluator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &Evaluator{costs: c, rates: r}, nil
}

// Costs returns the configuration's resilience costs.
func (e *Evaluator) Costs() core.Costs { return e.costs }

// Rates returns the configuration's error rates.
func (e *Evaluator) Rates() core.Rates { return e.rates }

// ChunkLayout is the W-independent shape of one segment of a Theorem 4
// layout: m chunks sized by the Theorem 3 fractions, with interior
// verifications of a given cost and recall. Its Attempt is the
// Proposition 3 chunk walk both exact evaluators share: Evaluator runs
// it once per probe for all n (identical) segments, and the multilevel
// evaluator once per probe for its (identical) level-1 intervals.
type ChunkLayout struct {
	m int
	// edgeFrac and intFrac are the Theorem 3 chunk fractions of the
	// first/last and interior chunks (intFrac is unused when m <= 2).
	edgeFrac, intFrac float64
	// recall and interiorCost describe one interior verification.
	recall, interiorCost float64
}

// NewChunkLayout returns the layout of m >= 1 chunks whose interior
// verifications cost interiorCost and detect with recall recall.
func NewChunkLayout(m int, interiorCost, recall float64) ChunkLayout {
	edge, inner := core.ChunkFractions(m, recall)
	return ChunkLayout{m: m, edgeFrac: edge, intFrac: inner, recall: recall, interiorCost: interiorCost}
}

// Attempt walks one attempt at a segment of work w under rates r, the
// segment closed by a guaranteed verification of cost guarVer, and
// returns the first-attempt spending s0 with the replay of earlier
// work factored out, and pfq, the probability-weighted chance a
// fail-stop interrupts the attempt: the attempt's spending including
// a replay worth x is s0 + pfq·x. A fail-stop costs the time it loses
// plus rec. Only the two distinct chunk sizes need transcendental
// work; the per-chunk recurrences are plain arithmetic.
func (cl ChunkLayout) Attempt(r core.Rates, w, guarVer, rec float64) (s0, pfq float64) {
	wEdge := cl.edgeFrac * w
	pfE := probAtLeastOne(r.FailStop, wEdge)
	psE := probAtLeastOne(r.Silent, wEdge)
	lostE := ExpectedLost(r.FailStop, wEdge)
	var wInt, pfI, psI, lostI float64
	if cl.m > 2 {
		wInt = cl.intFrac * w
		pfI = probAtLeastOne(r.FailStop, wInt)
		psI = probAtLeastOne(r.Silent, wInt)
		lostI = ExpectedLost(r.FailStop, wInt)
	}

	var s xmath.Accumulator
	prodPf := 1.0 // Π_{k<j}(1 - p^f_k)
	prodPs := 1.0 // Π_{k<j}(1 - p^s_k)
	g := 0.0      // probability of an earlier silent error missed so far
	for j := 0; j < cl.m; j++ {
		wj, pf, ps, lost := wInt, pfI, psI, lostI
		if j == 0 || j == cl.m-1 {
			wj, pf, ps, lost = wEdge, pfE, psE, lostE
		}
		q := prodPf * (prodPs + g)
		verif := cl.interiorCost
		if j == cl.m-1 {
			verif = guarVer
		}
		if pf > 0 {
			s.Add(q * pf * (lost + rec))
			pfq += q * pf
		}
		s.Add(q * (1 - pf) * (wj + verif))
		g = (g + prodPs*ps) * (1 - cl.recall)
		prodPs *= 1 - ps
		prodPf *= 1 - pf
	}
	return s.Value(), pfq
}

// EvalLayout returns the exact expected execution time E(P) of family
// k's Theorem 4 layout with n segments of m chunks at pattern length w.
// It agrees with ExactExpectedTime(Layout(k, w, n, m, recall), c, r) up
// to floating-point rounding, but walks the chunks of one segment only,
// since all segments are identical.
func (e *Evaluator) EvalLayout(k core.Kind, n, m int, w float64) (float64, error) {
	n, m = clampNM(k, n, m)
	if n <= 0 || m <= 0 {
		return 0, fmt.Errorf("%w: n=%d m=%d", core.ErrInvalidPattern, n, m)
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return 0, fmt.Errorf("%w: W=%v", core.ErrInvalidPattern, w)
	}
	c, r := e.costs, e.rates
	wi := w / float64(n)
	pi := math.Exp(-(r.FailStop + r.Silent) * wi) // Π_i, same for all segments

	// First-attempt spending of one segment, with the replay of earlier
	// segments factored out: S_i = s0 + pfq·Σ_{k<i} E_k. All segments
	// are identical, so the walk runs once.
	cost, recall := interiorVerifCost(k, c)
	s0, pfq := NewChunkLayout(m, cost, recall).Attempt(r, wi, c.GuarVer, c.DiskRec)

	var total xmath.Accumulator
	prevSum := 0.0 // Σ_{k<i} E_k
	for i := 0; i < n; i++ {
		ei := c.MemCkpt + ((1-pi)*c.MemRec+s0+pfq*prevSum)/pi
		if math.IsInf(ei, 1) || math.IsNaN(ei) {
			return 0, fmt.Errorf("analytic: expected time diverged at segment %d", i)
		}
		total.Add(ei)
		prevSum += ei
	}
	total.Add(c.DiskCkpt)
	return total.Value(), nil
}

// EvalLayoutOverhead returns the exact expected overhead E(P)/W - 1 of
// the Theorem 4 layout, the quantity minimised by the exact planner.
func (e *Evaluator) EvalLayoutOverhead(k core.Kind, n, m int, w float64) (float64, error) {
	t, err := e.EvalLayout(k, n, m, w)
	if err != nil {
		return 0, err
	}
	return t/w - 1, nil
}

// ExpectedTime evaluates an arbitrary pattern under the exact renewal
// equations (the general path: every chunk is walked individually).
// Costs and rates were validated at construction; only the pattern is
// validated here.
func (e *Evaluator) ExpectedTime(p core.Pattern) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	recall := e.costs.Recall
	if p.InteriorGuaranteed {
		recall = 1
	}
	interiorCost := e.costs.PartVer
	if p.InteriorGuaranteed {
		interiorCost = e.costs.GuarVer
	}
	var prevSum float64 // Σ_{k<i} E_k
	var total xmath.Accumulator
	for i := 0; i < p.N(); i++ {
		ei := exactSegmentTime(p, e.costs, e.rates, i, prevSum, recall, interiorCost)
		if math.IsInf(ei, 1) || math.IsNaN(ei) {
			return 0, fmt.Errorf("analytic: expected time diverged at segment %d", i)
		}
		total.Add(ei)
		prevSum += ei
	}
	total.Add(e.costs.DiskCkpt)
	return total.Value(), nil
}
