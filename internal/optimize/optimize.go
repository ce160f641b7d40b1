// Package optimize provides an exact-model planner beyond the
// closed-form Table 1 solution of package analytic: it minimises the
// renewal-equation expected overhead (no first-order truncation) over
// W, n and m, and quantifies how close the paper's first-order optimum
// is to the true optimum (an ablation the paper argues analytically).
package optimize

import (
	"context"
	"fmt"
	"math"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/xmath"
)

// ExactPlan is the outcome of exact-model optimisation. It carries no
// pattern: a caller that needs one lays it out with core.Layout at the
// plan's family, W, n and m and the costs' recall.
type ExactPlan struct {
	Kind core.Kind
	N, M int
	// W is the work length minimising the exact expected overhead.
	W float64
	// Overhead is the exact expected overhead E(P)/W - 1 at the optimum.
	Overhead float64
}

// String renders the plan compactly.
func (p ExactPlan) String() string {
	return fmt.Sprintf("%s(exact): W*=%.6gs n*=%d m*=%d H*=%.4f", p.Kind, p.W, p.N, p.M, p.Overhead)
}

// optimizeW minimises the exact expected overhead of family k at fixed
// (n, m) over the pattern length W: xmath.MinimizeFrom seeded at the
// first-order period W* = sqrt(oef/orw) of Theorems 1-4, which lands
// within a few percent of the exact optimum (§6.2.2), and kept to two
// orders of magnitude either side of it. Each probe is one
// Evaluator.EvalLayout at the leaf's (n, m). A probe whose expected
// time diverges reads as +Inf, so a large-W overflow cannot discard a
// leaf whose minimum is finite; the leaf fails only when no probe was
// finite.
func optimizeW(ev *analytic.Evaluator, k core.Kind, n, m int) (w, overhead float64, err error) {
	c, r := ev.Costs(), ev.Rates()
	if r.Total() == 0 {
		return 0, 0, analytic.ErrDegenerate
	}
	oef := analytic.EF(k, c, n, m)
	orw := analytic.RW(k, c, r, n, m)
	guess := xmath.SqrtRatio(oef, orw)
	if math.IsInf(guess, 1) || guess <= 0 {
		return 0, 0, fmt.Errorf("optimize: no finite period guess for %v", k)
	}
	var evalErr error
	h := func(w float64) float64 {
		h, err := ev.EvalLayoutOverhead(k, n, m, w)
		if err != nil {
			evalErr = err
			return math.Inf(1)
		}
		return h
	}
	w, overhead = xmath.MinimizeFrom(h, guess, guess/100, guess*100)
	if math.IsInf(overhead, 0) {
		if evalErr == nil {
			evalErr = fmt.Errorf("optimize: no finite overhead for %v n=%d m=%d", k, n, m)
		}
		return 0, 0, evalErr
	}
	return w, overhead, nil
}

// Exact finds the exact-model optimal plan of family k by searching the
// integer (n, m) space (a ternary search over n, a descent over m
// warm-started from the nearest n already searched) with the inner W
// optimised by optimizeW.
func Exact(k core.Kind, c core.Costs, r core.Rates) (ExactPlan, error) {
	first, err := analytic.Optimal(k, c, r)
	if err != nil {
		return ExactPlan{}, err
	}
	return ExactFrom(first, c, r)
}

// ExactFrom is Exact seeded with an already-computed first-order plan,
// so callers that have one (e.g. Compare) do not recompute
// analytic.Optimal for the same inputs.
func ExactFrom(first analytic.Plan, c core.Costs, r core.Rates) (ExactPlan, error) {
	ev, err := analytic.NewEvaluator(c, r)
	if err != nil {
		return ExactPlan{}, err
	}
	return exactFrom(context.Background(), ev, first)
}

// ExactWithEvaluatorCtx is ExactFrom on a caller-supplied evaluator
// under a cancellation context. ev must be bound to the same (costs,
// rates) the first-order plan was computed for; it is immutable, so a
// caller may share it across searches and probe it during or after
// one. When ctx is cancelled or expires the integer (n, m) search
// aborts — within one leaf W search — and returns ctx's error, never a
// partial plan (there is a final ctx check before the plan is
// assembled). The planning service threads each request's deadline
// through here so an abandoned cold plan stops searching.
func ExactWithEvaluatorCtx(ctx context.Context, ev *analytic.Evaluator, first analytic.Plan) (ExactPlan, error) {
	return exactFrom(ctx, ev, first)
}

// exactFrom runs the integer (n, m) search on a shared evaluator.
func exactFrom(ctx context.Context, ev *analytic.Evaluator, first analytic.Plan) (ExactPlan, error) {
	return exactSearch(ctx, ev, first, optimizeW)
}

// leafSearch minimises one (n, m) leaf's exact overhead over W:
// optimizeW, or in tests the golden-section oracle it replaced.
type leafSearch func(ev *analytic.Evaluator, k core.Kind, n, m int) (w, overhead float64, err error)

// maxNProbes bounds the n a ternary search over [1, MaxSplit] probes:
// xmath.MinimizeConvexInt probes two points per step that cuts a third
// of the range and at most three in its final scan, 43 in all. It sizes
// exactSearch's list of searched n, which then stays on the stack.
const maxNProbes = 43

// exactSearch is exactFrom over a given leaf search, so tests can run
// the same (n, m) walk with an oracle leaf.
func exactSearch(ctx context.Context, ev *analytic.Evaluator, first analytic.Plan, leaf leafSearch) (ExactPlan, error) {
	k := first.Kind
	maxN, maxM := 1, 1
	if k.MultiSegment() {
		maxN = min(3*first.N+4, analytic.MaxSplit)
	}
	if k.MultiChunk() {
		maxM = min(3*first.M+4, analytic.MaxSplit)
	}

	type eval struct {
		w, h float64
		err  error
	}
	memo := make(map[[2]int]eval)
	at := func(n, m int) eval {
		key := [2]int{n, m}
		if e, ok := memo[key]; ok {
			return e
		}
		if err := ctx.Err(); err != nil {
			return eval{err: err}
		}
		w, h, err := leaf(ev, k, n, m)
		e := eval{w: w, h: h, err: err}
		memo[key] = e
		return e
	}
	// m descends from the argmin of the nearest n already searched
	// (the first n from the first-order m*): the exact argmin moves by
	// a step or two between neighbouring n, so the descent is short,
	// and where the overhead is unimodal in m it lands on the ternary
	// search's argmin from any start (TestExactTernaryParity). n keeps
	// the ternary search, since its m-minimised overhead need not be
	// unimodal.
	var probed [maxNProbes][2]int
	searched := probed[:0] // (n, argmin m) in search order
	bestM := func(n int) (int, eval) {
		start, dist := first.M, -1
		for _, s := range searched {
			if d := max(n-s[0], s[0]-n); dist < 0 || d < dist {
				start, dist = s[1], d
			}
		}
		m, _ := xmath.MinimizeConvexIntFrom(func(m int) float64 {
			e := at(n, m)
			if e.err != nil {
				return math.Inf(1)
			}
			return e.h
		}, 1, maxM, start)
		if dist != 0 {
			searched = append(searched, [2]int{n, m})
		}
		return m, at(n, m)
	}
	n, _ := xmath.MinimizeConvexInt(func(n int) float64 {
		_, e := bestM(n)
		if e.err != nil {
			return math.Inf(1)
		}
		return e.h
	}, 1, maxN)
	m, best := bestM(n)
	if best.err != nil {
		return ExactPlan{}, best.err
	}
	// A cancelled search parked leaves at +Inf, so its argmin is not
	// the true one; return the cancellation, never a partial plan.
	if err := ctx.Err(); err != nil {
		return ExactPlan{}, err
	}
	return ExactPlan{Kind: k, N: n, M: m, W: best.w, Overhead: best.h}, nil
}

// Comparison quantifies the gap between the first-order plan and the
// exact-model plan of one family.
type Comparison struct {
	Kind       core.Kind
	FirstOrder analytic.Plan
	Exact      ExactPlan
	// FirstOrderExactOverhead is the exact overhead of the first-order
	// plan (its true cost when deployed).
	FirstOrderExactOverhead float64
	// Regret is the relative excess overhead incurred by deploying the
	// first-order plan instead of the exact optimum.
	Regret float64
}

// Compare runs both planners for family k and evaluates the
// first-order plan under the exact model. The first-order plan is
// computed once and threaded into the exact search; all exact-model
// evaluations share one Evaluator.
func Compare(k core.Kind, c core.Costs, r core.Rates) (Comparison, error) {
	first, err := analytic.Optimal(k, c, r)
	if err != nil {
		return Comparison{}, err
	}
	ev, err := analytic.NewEvaluator(c, r)
	if err != nil {
		return Comparison{}, err
	}
	exact, err := exactFrom(context.Background(), ev, first)
	if err != nil {
		return Comparison{}, err
	}
	hFirst, err := ev.EvalLayoutOverhead(k, first.N, first.M, first.W)
	if err != nil {
		return Comparison{}, err
	}
	regret := 0.0
	if exact.Overhead > 0 {
		regret = (hFirst - exact.Overhead) / exact.Overhead
	}
	return Comparison{
		Kind:                    k,
		FirstOrder:              first,
		Exact:                   exact,
		FirstOrderExactOverhead: hFirst,
		Regret:                  regret,
	}, nil
}
