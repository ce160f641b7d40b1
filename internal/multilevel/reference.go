package multilevel

import (
	"context"
	"fmt"
	"math"

	"respat/internal/xmath"
)

// optimizeNested is the pre-overhaul planner's exact stage: nested
// convex integer ternary searches over the capped box with a shared
// (branch, m) memo, sequential. It is kept for two reasons:
//
//   - it is the fallback when the first-order caps make the candidate
//     box too large to enumerate (degenerate near-zero-rate regimes) —
//     ternary search is logarithmic in the caps where enumeration is
//     linear;
//   - wrapped by optimizeReference (a test helper), it is the
//     golden-parity oracle: the pruned Plan must return a
//     bit-identical Plan on the Table 2 grid, which pins the overhaul
//     to the pre-optimization planner's outputs.
//
// Leaves run through the same leaf search as the pruned path, so the
// two searches share every floating-point operation and differ only in
// how they walk the box.
func optimizeNested(ctx context.Context, ev *Evaluator, leaf leafSearch, maxM int, caps []int, stats *SearchStats) (Plan, error) {
	memo := make(map[[MaxLevels]int]wEval)
	branch := make([]int, len(caps))
	counts := make([]int, len(caps)+1)
	at := func(m int) wEval {
		var key [MaxLevels]int
		copy(key[:], branch)
		key[MaxLevels-1] = m
		if e, ok := memo[key]; ok {
			return e
		}
		if err := ctx.Err(); err != nil {
			return wEval{err: err}
		}
		fillCounts(counts, branch)
		e := leaf(ev, counts, m)
		e.m = m
		memo[key] = e
		return e
	}
	bestM := func() (int, wEval) {
		m, _ := xmath.MinimizeConvexInt(func(m int) float64 {
			e := at(m)
			if e.err != nil {
				return math.Inf(1)
			}
			return e.h
		}, 1, maxM)
		return m, at(m)
	}
	// descend searches branching dimension d, returning the best leaf
	// under the factors already fixed in branch[0..d-1].
	var descend func(d int) (int, wEval)
	descend = func(d int) (int, wEval) {
		if d == len(branch) {
			return bestM()
		}
		k, _ := xmath.MinimizeConvexInt(func(k int) float64 {
			branch[d] = k
			_, e := descend(d + 1)
			if e.err != nil {
				return math.Inf(1)
			}
			return e.h
		}, 1, caps[d])
		branch[d] = k
		return descend(d + 1)
	}
	m, best := descend(0)
	if best.err != nil {
		return Plan{}, best.err
	}
	if math.IsInf(best.h, 1) || math.IsNaN(best.h) {
		return Plan{}, fmt.Errorf("multilevel: optimisation diverged")
	}
	// A cancelled search parked leaves at +Inf; never serve its
	// reduction as if the full search had run.
	if err := ctx.Err(); err != nil {
		return Plan{}, err
	}
	stats.Leaves += len(memo)
	stats.Evaluated += len(memo)
	for _, e := range memo {
		stats.LeafProbes += e.probes
	}
	return Plan{Spec: UniformSpec(best.w, branch, m), Overhead: best.h}, nil
}
