package multilevel

import (
	"math"

	"respat/internal/analytic"
	"respat/internal/xmath"
)

// Evaluator computes exact expected execution times for one validated
// Params configuration via a renewal recursion that conditions on
// which level a fail-stop error destroys. It generalises both exact
// evaluators already in the repo: at L = 1 it reduces to package
// analytic's renewal equations (every error recovers from the single
// level), at L = 2 with λs = 0 to package twolevel. It is also the
// planner's probe context: the per-level cost/share vectors are
// hoisted out of Params once, a level-1 interval's chunks walk
// analytic.ChunkLayout's Proposition 3 kernel, and the level
// boundaries are tracked by per-level countdown counters, so the
// renewal recursion runs without a single integer division per
// interval. A planner probing many W values at a fixed (counts, m)
// layout derives the layout once and pays O(1) transcendental work and
// zero allocations per probe.
//
// An Evaluator is immutable after NewEvaluator and safe for concurrent
// use.
type Evaluator struct {
	p       Params
	meanRec float64
	// Hoisted per-level constants: ckpts[l] = C_{l+1}, shares[l] =
	// q_{l+1}; rec1 = R_1. Values are copied verbatim from p.Levels, so
	// arithmetic against them is bit-identical to indexing the structs.
	ckpts  [MaxLevels]float64
	shares [MaxLevels]float64
	rec1   float64
}

// NewEvaluator validates p once and returns an evaluator bound to it.
func NewEvaluator(p Params) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{p: p, meanRec: p.meanRec(), rec1: p.Levels[0].Rec}
	for l, lev := range p.Levels {
		e.ckpts[l] = lev.Ckpt
		e.shares[l] = lev.Share
	}
	return e, nil
}

// Params returns the bound configuration.
func (e *Evaluator) Params() Params { return e.p }

// layout returns the Theorem 3 chunk layout of a level-1 interval of
// m >= 1 chunks under the configuration's interior-verification
// contract.
func (e *Evaluator) layout(m int) analytic.ChunkLayout {
	cost, recall := e.p.interiorVerif()
	return analytic.NewChunkLayout(m, cost, recall)
}

// attempt holds the per-attempt invariants of one level-1 interval:
// expected first-attempt spending (with the level-conditioned recovery
// folded in but the replay factored out), the total fail-stop
// interruption probability, the silent-detection probability and the
// zero-error success probability Π.
type attempt struct {
	s0  float64 // expected spending per attempt, replay excluded
	pfq float64 // P(attempt interrupted by a fail-stop)
	sdp float64 // P(attempt ends in a detected silent error)
	pi  float64 // P(attempt completes error-free)
}

// intervalAttempt computes the attempt invariants of one level-1
// interval of work w1 laid out as cl.
func (e *Evaluator) intervalAttempt(cl analytic.ChunkLayout, w1 float64) attempt {
	r := e.p.Rates
	a := attempt{pi: math.Exp(-(r.FailStop + r.Silent) * w1)}
	// A fail-stop of level l costs R_l on top of the lost time; the
	// level split is independent of when the error strikes, so the
	// expectation Σ q_l·R_l is the recovery cost of the walk and the
	// level-conditioned replay is added by the caller via pfq.
	a.s0, a.pfq = cl.Attempt(r, w1, e.p.GuarVer, e.meanRec)
	// Every attempt ends in exactly one of: success, fail-stop, or a
	// detected silent error (the closing guaranteed verification makes
	// detection certain).
	a.sdp = 1 - a.pi - a.pfq
	if a.sdp < 0 {
		a.sdp = 0
	}
	return a
}

// evalSpec is the planner-facing fast path of ExpectedTime: the
// renewal recursion over a derived chunk layout, for a validated
// count vector and pattern length w. Level boundaries are tracked by
// per-level countdown counters: left[l] is the number of level-1
// intervals until the next level-(l+1) boundary, reset to the stride
// n_1/n_{l+1} when it runs out. Strides nest (each n_l is a multiple
// of n_{l+1}), so the boundary closing interval t writes every level
// up to the highest one due. The floating-point operations run in
// exactly the order of the direct implementation, so results are
// bit-identical; the counters only replace the per-t modulo walks.
func (e *Evaluator) evalSpec(cl analytic.ChunkLayout, counts []int, w float64) float64 {
	n1 := counts[0]
	a := e.intervalAttempt(cl, w/float64(n1))
	if a.pi <= 0 {
		return math.Inf(1)
	}
	L := len(e.p.Levels)
	// back[l] accumulates Σ E_k since the last level-(l+1) boundary,
	// the replay a level-(l+1) error forces.
	var back [MaxLevels]float64
	var stride, left [MaxLevels]int
	for l := 1; l < L; l++ {
		stride[l] = n1 / counts[l]
		left[l] = stride[l]
	}
	var total xmath.Accumulator
	for t := 0; t < n1; t++ {
		replay := 0.0
		for l := 1; l < L; l++ { // B_1 = 0: a level-1 error retries in place
			replay += e.shares[l] * back[l]
		}
		et := (a.s0 + a.pfq*replay + a.sdp*e.rec1) / a.pi
		level := 1
		for l := 1; l < L; l++ {
			left[l]--
			if left[l] == 0 {
				level = l + 1
			}
		}
		for l := 0; l < level; l++ {
			et += e.ckpts[l]
		}
		if math.IsNaN(et) || math.IsInf(et, 1) {
			return math.Inf(1)
		}
		total.Add(et)
		for l := 1; l < L; l++ {
			if left[l] == 0 {
				back[l], left[l] = 0, stride[l]
			} else {
				back[l] += et
			}
		}
	}
	return total.Value()
}

// ExpectedTime returns the exact expected execution time E(P) of spec
// s under the renewal recursion. For level-1 interval t (all earlier
// intervals committed), with Π the zero-error attempt probability:
//
//	E_t = cpt(t) + (S + pfq·Σ_l q_l·B_l(t) + sdp·R_1) / Π,
//
// where cpt(t) is the checkpoint cost of the boundary closing the
// interval (Σ C_j over the levels it writes), S the expected
// first-attempt spending, B_l(t) = Σ E_k over the intervals since the
// last level-l boundary — the replay a level-l error forces — and sdp
// the probability the attempt ends in a detected silent error (rolled
// back to the level-1 checkpoint at cost R_1). It returns +Inf when
// the recursion diverges (an interval too long to ever complete).
func (e *Evaluator) ExpectedTime(s Spec) (float64, error) {
	if err := s.Validate(len(e.p.Levels)); err != nil {
		return 0, err
	}
	return e.evalSpec(e.layout(s.M), s.Counts, s.W), nil
}

// Overhead returns the exact expected overhead E(P)/W - 1 of spec s,
// the quantity the planner minimises.
func (e *Evaluator) Overhead(s Spec) (float64, error) {
	t, err := e.ExpectedTime(s)
	if err != nil {
		return 0, err
	}
	return t/s.W - 1, nil
}

// ExpectedTime is the one-shot form of Evaluator.ExpectedTime; callers
// evaluating many specs under the same Params should construct an
// Evaluator once.
func ExpectedTime(p Params, s Spec) (float64, error) {
	ev, err := NewEvaluator(p)
	if err != nil {
		return 0, err
	}
	return ev.ExpectedTime(s)
}
