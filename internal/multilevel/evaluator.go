package multilevel

import (
	"fmt"
	"math"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/xmath"
)

// maxCachedLayouts bounds the per-evaluator chunk-layout memo (keyed
// by m). A planner run over a typical caps box probes a few dozen
// distinct m values; the cap bounds one plan's memo over a large box
// (the caps grow with the first-order seed), which starts over instead
// of growing the map without bound.
const maxCachedLayouts = 4096

// Evaluator computes exact expected execution times for one validated
// Params configuration via a renewal recursion that conditions on
// which level a fail-stop error destroys. It generalises both exact
// evaluators already in the repo: at L = 1 it reduces to package
// analytic's renewal equations (every error recovers from the single
// level), at L = 2 with λs = 0 to package twolevel. It is also the
// planner's probe context: the W-independent invariants of a spec are
// derived once —
//
//   - per-m chunk-layout invariants (the Theorem 3 fractions and the
//     interior-verification contract), memoized as in
//     analytic.Evaluator;
//   - the per-level cost/share vectors, hoisted out of Params;
//
// and the level boundaries are tracked by per-level countdown
// counters, so the renewal recursion runs without a single integer
// division per interval. A planner probing many W values at a fixed
// (counts, m) layout therefore pays O(1) transcendental work and zero
// allocations per probe, and re-probing a layout costs one map hit.
//
// An Evaluator is not safe for concurrent use (the layout memo is
// mutated); give each goroutine its own.
type Evaluator struct {
	p       Params
	meanRec float64
	// Hoisted per-level constants: ckpts[l] = C_{l+1}, shares[l] =
	// q_{l+1}; rec1 = R_1. Values are copied verbatim from p.Levels, so
	// arithmetic against them is bit-identical to indexing the structs.
	ckpts   [MaxLevels]float64
	shares  [MaxLevels]float64
	rec1    float64
	layouts map[int]*chunkLayout
}

// chunkLayout caches the W-independent Theorem 3 invariants of one
// m-chunk level-1 interval.
type chunkLayout struct {
	m                 int
	edgeFrac, intFrac float64
	recall            float64
	interiorCost      float64
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

// layout returns the cached chunk invariants for m chunks.
func (e *Evaluator) layout(m int) (*chunkLayout, error) {
	if m < 1 {
		return nil, fmt.Errorf("multilevel: m = %d, need >= 1", m)
	}
	if cl, ok := e.layouts[m]; ok {
		return cl, nil
	}
	cost, recall := e.p.interiorVerif()
	cl := &chunkLayout{m: m, recall: recall, interiorCost: cost}
	cl.edgeFrac, cl.intFrac = core.ChunkFractions(m, recall)
	if e.layouts == nil || len(e.layouts) >= maxCachedLayouts {
		e.layouts = make(map[int]*chunkLayout)
	}
	e.layouts[m] = cl
	return cl, nil
}

// attempt holds the per-attempt invariants of one level-1 interval:
// expected first-attempt spending (with the level-conditioned recovery
// folded in but the replay factored out), the total fail-stop
// interruption probability, the silent-detection probability and the
// zero-error success probability Π.
type attempt struct {
	s0   float64 // expected spending per attempt, replay excluded
	pfq  float64 // P(attempt interrupted by a fail-stop)
	sdp  float64 // P(attempt ends in a detected silent error)
	pi   float64 // P(attempt completes error-free)
	work float64 // w1, the interval work
}

// intervalAttempt computes the attempt invariants of one level-1
// interval of work w1 with the cached m-chunk layout. The inner loop
// is the Proposition 3 chunk walk of analytic.Evaluator: the Theorem 3
// row has at most two distinct chunk sizes, so the transcendental work
// is O(1) and the remaining per-chunk recurrences are plain
// arithmetic.
func (e *Evaluator) intervalAttempt(cl *chunkLayout, w1 float64) attempt {
	r := e.p.Rates
	a := attempt{work: w1, pi: math.Exp(-(r.FailStop + r.Silent) * w1)}

	wEdge := cl.edgeFrac * w1
	pfE := probAtLeastOne(r.FailStop, wEdge)
	psE := probAtLeastOne(r.Silent, wEdge)
	lostE := analytic.ExpectedLost(r.FailStop, wEdge)
	var wInt, pfI, psI, lostI float64
	if cl.m > 2 {
		wInt = cl.intFrac * w1
		pfI = probAtLeastOne(r.FailStop, wInt)
		psI = probAtLeastOne(r.Silent, wInt)
		lostI = analytic.ExpectedLost(r.FailStop, wInt)
	}

	var s0 xmath.Accumulator
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
			verif = e.p.GuarVer
		}
		if pf > 0 {
			// A fail-stop of level l costs R_l on top of the lost time;
			// the level split is independent of when the error strikes,
			// so the expectation Σ q_l·R_l folds in here and the
			// level-conditioned replay is added by the caller via pfq.
			s0.Add(q * pf * (lost + e.meanRec))
			a.pfq += q * pf
		}
		s0.Add(q * (1 - pf) * (wj + verif))
		g = (g + prodPs*ps) * (1 - cl.recall)
		prodPs *= 1 - ps
		prodPf *= 1 - pf
	}
	a.s0 = s0.Value()
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
// renewal recursion over a prefetched chunk layout, for a validated
// count vector and pattern length w. Level boundaries are tracked by
// per-level countdown counters: left[l] is the number of level-1
// intervals until the next level-(l+1) boundary, reset to the stride
// n_1/n_{l+1} when it runs out. Strides nest (each n_l is a multiple
// of n_{l+1}), so the boundary closing interval t writes every level
// up to the highest one due. The floating-point operations run in
// exactly the order of the direct implementation, so results are
// bit-identical; the counters only replace the per-t modulo walks.
func (e *Evaluator) evalSpec(cl *chunkLayout, counts []int, w float64) float64 {
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
	cl, err := e.layout(s.M)
	if err != nil {
		return 0, err
	}
	return e.evalSpec(cl, s.Counts, s.W), nil
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

// probAtLeastOne returns 1 - e^{-λw} computed stably.
func probAtLeastOne(lambda, w float64) float64 {
	if lambda <= 0 || w <= 0 {
		return 0
	}
	return -math.Expm1(-lambda * w)
}
