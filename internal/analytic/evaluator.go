package analytic

import (
	"fmt"
	"math"

	"respat/internal/core"
	"respat/internal/xmath"
)

// Evaluator evaluates exact renewal-equation expected times for one
// fixed (costs, rates) configuration. It validates the configuration
// once at construction and caches the W-independent invariants of every
// Theorem 4 layout it sees, so planners that probe many pattern lengths
// at the same (n, m) — e.g. the leaf W search of optimize.Exact, ~14
// probes from the first-order period — pay for validation and layout
// construction once and for ≤ 2 distinct chunk-size evaluations per
// probe instead of O(m).
//
// The fast path exploits the structure of the optimal interior layout:
// all n segments are equal, and the Theorem 3 chunk row has only two
// distinct sizes (first = last, interior equal). Per probe it therefore
// needs a constant number of exp/expm1 evaluations; the remaining
// per-chunk recurrences are plain arithmetic. Arbitrary patterns are
// handled by ExpectedTime, which shares the validated configuration but
// walks every chunk.
//
// An Evaluator is not safe for concurrent use: the layout cache is
// mutated by EvalLayout. Give each goroutine its own Evaluator.
type Evaluator struct {
	costs   core.Costs
	rates   core.Rates
	layouts map[layoutKey]*layoutInfo
}

type layoutKey struct {
	kind core.Kind
	n, m int
}

// layoutInfo caches the W-independent invariants of family kind's
// Theorem 4 layout with n segments of m chunks.
type layoutInfo struct {
	n, m int
	// edgeFrac and intFrac are the Theorem 3 chunk fractions of the
	// first/last and interior chunks of a segment (intFrac is unused
	// when m <= 2).
	edgeFrac, intFrac float64
	// recall is the detection recall of interior verifications
	// (costs.Recall for the partial families, 1 otherwise).
	recall float64
	// interiorCost is the cost of one interior verification.
	interiorCost float64
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

// layout returns the cached invariants of family k at (n, m), clamping
// the dimensions the family fixes exactly as core.Layout does.
func (e *Evaluator) layout(k core.Kind, n, m int) (*layoutInfo, error) {
	n, m = clampNM(k, n, m)
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("%w: n=%d m=%d", core.ErrInvalidPattern, n, m)
	}
	key := layoutKey{kind: k, n: n, m: m}
	if li, ok := e.layouts[key]; ok {
		return li, nil
	}
	li := &layoutInfo{n: n, m: m, recall: 1, interiorCost: e.costs.GuarVer}
	if k.PartialVerifs() {
		li.recall = e.costs.Recall
		li.interiorCost = e.costs.PartVer
	}
	li.edgeFrac, li.intFrac = core.ChunkFractions(m, li.recall)
	if e.layouts == nil {
		e.layouts = make(map[layoutKey]*layoutInfo)
	}
	e.layouts[key] = li
	return li, nil
}

// EvalLayout returns the exact expected execution time E(P) of family
// k's Theorem 4 layout with n segments of m chunks at pattern length w.
// It agrees with ExactExpectedTime(Layout(k, w, n, m, recall), c, r) up
// to floating-point rounding, but reuses the cached layout so repeated
// probes at the same (n, m) only rescale W.
func (e *Evaluator) EvalLayout(k core.Kind, n, m int, w float64) (float64, error) {
	li, err := e.layout(k, n, m)
	if err != nil {
		return 0, err
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return 0, fmt.Errorf("%w: W=%v", core.ErrInvalidPattern, w)
	}
	c, r := e.costs, e.rates
	wi := w / float64(li.n)
	pi := math.Exp(-(r.FailStop + r.Silent) * wi) // Π_i, same for all segments

	// Per-distinct-chunk-size quantities: the only transcendental work
	// of the whole evaluation.
	wEdge := li.edgeFrac * wi
	pfE := probAtLeastOne(r.FailStop, wEdge)
	psE := probAtLeastOne(r.Silent, wEdge)
	lostE := ExpectedLost(r.FailStop, wEdge)
	var wInt, pfI, psI, lostI float64
	if li.m > 2 {
		wInt = li.intFrac * wi
		pfI = probAtLeastOne(r.FailStop, wInt)
		psI = probAtLeastOne(r.Silent, wInt)
		lostI = ExpectedLost(r.FailStop, wInt)
	}

	// First-attempt spending of one segment, with the replay of earlier
	// segments factored out: S_i = s0 + pfq·Σ_{k<i} E_k, where pfq is
	// the total probability-weighted chance a fail-stop interrupts the
	// attempt. All segments are identical, so this runs once.
	var s0 xmath.Accumulator
	pfq := 0.0
	prodPf := 1.0 // Π_{k<j}(1 - p^f_k)
	prodPs := 1.0 // Π_{k<j}(1 - p^s_k)
	g := 0.0      // probability of an earlier silent error missed so far
	for j := 0; j < li.m; j++ {
		wj, pf, ps, lost := wInt, pfI, psI, lostI
		if j == 0 || j == li.m-1 {
			wj, pf, ps, lost = wEdge, pfE, psE, lostE
		}
		q := prodPf * (prodPs + g)
		verif := li.interiorCost
		if j == li.m-1 {
			verif = c.GuarVer
		}
		if pf > 0 {
			s0.Add(q * pf * (lost + c.DiskRec))
			pfq += q * pf
		}
		s0.Add(q * (1 - pf) * (wj + verif))
		g = (g + prodPs*ps) * (1 - li.recall)
		prodPs *= 1 - ps
		prodPf *= 1 - pf
	}

	s0v := s0.Value()
	var total xmath.Accumulator
	prevSum := 0.0 // Σ_{k<i} E_k
	for i := 0; i < li.n; i++ {
		ei := c.MemCkpt + ((1-pi)*c.MemRec+s0v+pfq*prevSum)/pi
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
