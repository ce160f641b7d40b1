// Package analytic implements the paper's analytical model: the
// first-order optimal pattern characterisation of Theorems 1-4
// (summarised in Table 1) and an exact (non-truncated) expected-time
// evaluator derived from the renewal equations of Propositions 1-4.
// The truncated expansions of Propositions 1-4 and the Section 5 model
// of errors during checkpoints and recoveries are test oracles
// (oracle_test.go).
//
// Conventions: work is measured in seconds at unit speed, rates in
// errors per second. The expected overhead of a pattern is
// H(P) = E(P)/W - 1, decomposed to first order (Definition 1) as
// H = oef/W + orw·W with oef the error-free overhead and orw the
// re-executed-work fraction; the optimum is W* = sqrt(oef/orw) with
// H* = 2·sqrt(oef·orw).
package analytic

import (
	"errors"
	"fmt"
	"math"

	"respat/internal/core"
	"respat/internal/xmath"
)

// MaxSplit caps the number of segments or chunks considered by the
// integer planner. It is only reached in degenerate regimes (e.g. a
// zero fail-stop rate makes the rational n̄* diverge).
const MaxSplit = 4096

// ErrDegenerate is returned when no finite optimal pattern exists
// (both error rates zero: W* diverges).
var ErrDegenerate = errors.New("analytic: both error rates are zero; no finite optimal pattern")

// Plan is the outcome of optimising one pattern family for a platform:
// the integer-rounded Table 1 solution.
type Plan struct {
	Kind core.Kind
	// N and M are the integer-optimal number of segments and chunks per
	// segment (1 when the family fixes them).
	N, M int
	// RationalN and RationalM are the continuous relaxations n̄*, m̄*
	// of Theorems 2-4 before integer rounding (1 when fixed).
	RationalN, RationalM float64
	// W is the optimal pattern work length W* = sqrt(oef/orw) in
	// seconds at the integer N, M.
	W float64
	// Overhead is the first-order expected overhead 2·sqrt(oef·orw) at
	// the integer N, M.
	Overhead float64
	// Pattern is the concrete optimal pattern (Theorem 4 layout).
	Pattern core.Pattern
}

// String renders the plan compactly.
func (p Plan) String() string {
	return fmt.Sprintf("%s: W*=%.6gs n*=%d m*=%d H*=%.4f", p.Kind, p.W, p.N, p.M, p.Overhead)
}

// interiorVerifCost returns the cost of one interior verification and
// the effective recall for family k.
func interiorVerifCost(k core.Kind, c core.Costs) (cost, recall float64) {
	if k.PartialVerifs() {
		return c.PartVer, c.Recall
	}
	return c.GuarVer, 1
}

// clampNM forces n and m to 1 for families that fix them.
func clampNM(k core.Kind, n, m int) (int, int) {
	if !k.MultiSegment() {
		n = 1
	}
	if !k.MultiChunk() {
		m = 1
	}
	return n, m
}

// EF returns the error-free overhead oef of family k at n segments and
// m chunks per segment:
//
//	oef = n(m-1)·v + n(V* + CM) + CD
//
// with v the interior verification cost (V or V*).
func EF(k core.Kind, c core.Costs, n, m int) float64 {
	n, m = clampNM(k, n, m)
	v, _ := interiorVerifCost(k, c)
	return float64(n*(m-1))*v + float64(n)*(c.GuarVer+c.MemCkpt) + c.DiskCkpt
}

// RW returns the re-executed-work overhead orw of family k at n and m:
//
//	orw = f*(m, r)·λs/n + λf/2.
func RW(k core.Kind, c core.Costs, r core.Rates, n, m int) float64 {
	n, m = clampNM(k, n, m)
	_, recall := interiorVerifCost(k, c)
	return core.Fstar(m, recall)*r.Silent/float64(n) + r.FailStop/2
}

// product returns oef·orw, the quantity F(n, m) minimised by the
// planner; H* = 2·sqrt(F).
func product(k core.Kind, c core.Costs, r core.Rates, n, m int) float64 {
	return EF(k, c, n, m) * RW(k, c, r, n, m)
}

// RationalNM returns the continuous-relaxation optima n̄* and m̄* of
// Theorems 1-4 (Table 1, columns n* and m*). Families that fix a
// dimension report 1. Degenerate cases (division by zero, negative
// square-root operands) are clamped to 1 or +Inf as appropriate; the
// integer planner copes with either.
func RationalNM(k core.Kind, c core.Costs, r core.Rates) (nbar, mbar float64) {
	lf, ls := r.FailStop, r.Silent
	vs, cm, cd, v := c.GuarVer, c.MemCkpt, c.DiskCkpt, c.PartVer
	rho := (2 - c.Recall) / c.Recall // the (2-r)/r factor of Theorems 3-4
	nbar, mbar = 1, 1
	switch k {
	case core.PD:
	case core.PDVStar:
		mbar = math.Sqrt(ls / (ls + lf) * (cm + cd) / vs)
	case core.PDV:
		arg := ls / (ls + lf) * rho * ((vs+cm+cd)/v - rho)
		mbar = 2 - 2/c.Recall + sqrtOrZero(arg)
	case core.PDM:
		nbar = math.Sqrt(2 * ls / lf * cd / (vs + cm))
	case core.PDMVStar:
		nbar = math.Sqrt(ls / lf * cd / cm)
		mbar = math.Sqrt(cm / vs)
	case core.PDMV:
		nbar = math.Sqrt(ls / lf * cd / (vs - rho*v + cm))
		arg := rho * ((vs+cm)/v - rho)
		mbar = 2 - 2/c.Recall + sqrtOrZero(arg)
	}
	if math.IsNaN(nbar) || nbar < 1 {
		nbar = 1
	}
	if math.IsNaN(mbar) || mbar < 1 {
		mbar = 1
	}
	return nbar, mbar
}

func sqrtOrZero(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Optimal computes the integer-optimal Table 1 plan of family k for
// costs c and rates r. The integer (n*, m*) is selected among the
// floor/ceil neighbourhood of the continuous optimum and, as a
// robustness net for degenerate parameter regimes, a convex integer
// search, whichever yields the smaller oef·orw product.
func Optimal(k core.Kind, c core.Costs, r core.Rates) (Plan, error) {
	if err := c.Validate(); err != nil {
		return Plan{}, err
	}
	if err := r.Validate(); err != nil {
		return Plan{}, err
	}
	if r.Total() == 0 {
		return Plan{}, ErrDegenerate
	}
	nbar, mbar := RationalNM(k, c, r)

	nCands := []int{1}
	if k.MultiSegment() {
		nCands = intCandidates(nbar)
	}
	mCands := []int{1}
	if k.MultiChunk() {
		mCands = intCandidates(mbar)
	}

	bestN, bestM := 1, 1
	bestF := math.Inf(1)
	for _, n := range nCands {
		for _, m := range mCands {
			if f := product(k, c, r, n, m); f < bestF {
				bestN, bestM, bestF = n, m, f
			}
		}
	}
	// Robustness net: a nested convex integer search. For well-posed
	// inputs it lands on the same (n, m); in degenerate regimes (e.g.
	// λf = 0 driving n̄* to infinity) it supplies a finite answer. n
	// keeps a ternary search. m descends from the rounded m̄*: with
	// x = (m-2)r+2, oef = α + βx and orw = γ + δ/x, so the product is
	// βγ·x + αδ/x + const with β, γ, δ ≥ 0 — strictly convex in m when
	// αδ > 0, non-decreasing otherwise — and the descent lands on the
	// ternary search's argmin.
	mStart := MaxSplit
	if mbar < MaxSplit {
		mStart = int(math.Round(mbar))
	}
	mAt := func(n int) (int, float64) {
		return xmath.MinimizeConvexIntFrom(func(m int) float64 { return product(k, c, r, n, m) }, 1, MaxSplit, mStart)
	}
	nGrid, mGrid := 1, 1
	if k.MultiSegment() && k.MultiChunk() {
		n2, _ := xmath.MinimizeConvexInt(func(n int) float64 { _, f := mAt(n); return f }, 1, MaxSplit)
		m2, _ := mAt(n2)
		nGrid, mGrid = n2, m2
	} else if k.MultiSegment() {
		nGrid, _ = xmath.MinimizeConvexInt(func(n int) float64 { return product(k, c, r, n, 1) }, 1, MaxSplit)
	} else if k.MultiChunk() {
		mGrid, _ = mAt(1)
	}
	if f := product(k, c, r, nGrid, mGrid); f < bestF {
		bestN, bestM, bestF = nGrid, mGrid, f
	}

	oef := EF(k, c, bestN, bestM)
	orw := RW(k, c, r, bestN, bestM)
	w := xmath.SqrtRatio(oef, orw)
	if math.IsInf(w, 1) || w <= 0 || math.IsNaN(w) {
		return Plan{}, fmt.Errorf("analytic: no finite optimal period for %v (oef=%v, orw=%v)", k, oef, orw)
	}
	pat, err := core.Layout(k, w, bestN, bestM, c.Recall)
	if err != nil {
		return Plan{}, err
	}
	return Plan{
		Kind:      k,
		N:         bestN,
		M:         bestM,
		RationalN: nbar,
		RationalM: mbar,
		W:         w,
		Overhead:  2 * math.Sqrt(bestF),
		Pattern:   pat,
	}, nil
}

// intCandidates is xmath.IntNeighborhood with an infinity guard.
func intCandidates(x float64) []int {
	if math.IsInf(x, 1) || x > MaxSplit {
		return []int{MaxSplit}
	}
	return xmath.IntNeighborhood(x)
}

// TableOverhead returns the closed-form optimal overhead H*(P) of
// Table 1 (continuous relaxation, dominant term only). It serves as a
// cross-check of Optimal: the integer-rounded overhead is never below
// it and approaches it as the MTBF grows.
func TableOverhead(k core.Kind, c core.Costs, r core.Rates) float64 {
	lf, ls := r.FailStop, r.Silent
	vs, cm, cd, v := c.GuarVer, c.MemCkpt, c.DiskCkpt, c.PartVer
	rho := (2 - c.Recall) / c.Recall
	switch k {
	case core.PD:
		return 2 * math.Sqrt((ls+lf/2)*(vs+cm+cd))
	case core.PDVStar:
		return math.Sqrt(2*(ls+lf)*(cm+cd)) + math.Sqrt(2*ls*vs)
	case core.PDV:
		return math.Sqrt(2*(ls+lf)*(vs-rho*v+cm+cd)) + math.Sqrt(2*ls*rho*v)
	case core.PDM:
		return 2*math.Sqrt(ls*(vs+cm)) + math.Sqrt(2*lf*cd)
	case core.PDMVStar:
		return math.Sqrt(2*lf*cd) + math.Sqrt(2*ls*cm) + math.Sqrt(2*ls*vs)
	case core.PDMV:
		return math.Sqrt(2*lf*cd) + math.Sqrt(2*ls*(vs-rho*v+cm)) + math.Sqrt(2*ls*rho*v)
	default:
		return math.NaN()
	}
}

// ExpectedLost returns E[T_lost], the expected time lost when an
// exponential(λ) fail-stop error interrupts an activity of length w
// (Equation 3): 1/λ - w/(e^{λw} - 1). It is evaluated stably for tiny
// λw via its series w/2 - λw²/12 + O((λw)³).
func ExpectedLost(lambda, w float64) float64 {
	if lambda <= 0 || w <= 0 {
		return 0
	}
	x := lambda * w
	if x < 1e-4 {
		// Series w/2 - λw²/12 + O(λ³w⁴): below the threshold its
		// truncation error (~w·x³/720) is far smaller than the
		// cancellation error of the direct form (~w·ulp/x).
		return w/2 - lambda*w*w/12
	}
	return 1/lambda - w/math.Expm1(x)
}

// probAtLeastOne returns 1 - e^{-λw} computed stably.
func probAtLeastOne(lambda, w float64) float64 {
	if lambda <= 0 || w <= 0 {
		return 0
	}
	return -math.Expm1(-lambda * w)
}

// ExactExpectedTime evaluates the expected execution time of an
// arbitrary pattern under the Section 2 protocol without any series
// truncation, by solving the renewal equations of Propositions 1-4
// (Equations 2, 17 and 23) numerically:
//
//	E(P) = Σ_i E_i + CD,
//	E_i  = CM + ((1-Π_i)·RM + S_i) / Π_i,
//
// with Π_i the probability segment i completes error-free and S_i the
// expected first-attempt spending (chunks executed, verification
// costs, fail-stop losses, disk recoveries and replays of earlier
// segments). Verifications, checkpoints and recoveries are assumed
// error-free, matching the Sections 3-4 analysis.
// ExactExpectedTime is a thin wrapper over Evaluator for one-shot
// evaluations; callers evaluating many patterns or many pattern lengths
// under the same (costs, rates) should construct an Evaluator once.
func ExactExpectedTime(p core.Pattern, c core.Costs, r core.Rates) (float64, error) {
	ev, err := NewEvaluator(c, r)
	if err != nil {
		return 0, err
	}
	return ev.ExpectedTime(p)
}

// exactSegmentTime computes E_i for segment i given the expected
// replay cost of all earlier segments.
func exactSegmentTime(p core.Pattern, c core.Costs, r core.Rates, i int, prevSum, recall, interiorCost float64) float64 {
	m := p.M(i)
	wi := p.SegmentWork(i)
	pi := math.Exp(-(r.FailStop + r.Silent) * wi) // Π_i

	var s xmath.Accumulator
	prodPf := 1.0 // Π_{k<j}(1 - p^f_k)
	prodPs := 1.0 // Π_{k<j}(1 - p^s_k)
	g := 0.0      // probability of an earlier silent error missed so far
	for j := 0; j < m; j++ {
		w := p.ChunkWork(i, j)
		pf := probAtLeastOne(r.FailStop, w)
		ps := probAtLeastOne(r.Silent, w)
		q := prodPf * (prodPs + g)
		verif := interiorCost
		if j == m-1 {
			verif = c.GuarVer
		}
		if pf > 0 {
			s.Add(q * pf * (ExpectedLost(r.FailStop, w) + c.DiskRec + prevSum))
		}
		s.Add(q * (1 - pf) * (w + verif))
		// The partial verification after chunk j misses the corruption
		// with probability 1 - recall.
		g = (g + prodPs*ps) * (1 - recall)
		prodPs *= 1 - ps
		prodPf *= 1 - pf
	}
	return c.MemCkpt + ((1-pi)*c.MemRec+s.Value())/pi
}
