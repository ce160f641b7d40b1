package multilevel

import (
	"context"
	"fmt"
	"math"

	"respat/internal/xmath"
)

// firstOrderSeedTernary is the seeding stage as it ran before the
// descent: a ternary search over [1, MaxBranch] in every branching
// dimension and in m, nested, dimension 0 outermost (83,248 first-order
// probes at L=3, 3.66M at L=4). firstOrderSeed must return the same
// seed vector and m.
func firstOrderSeedTernary(p Params, seed, counts []int) (m int) {
	product := func(m int) float64 {
		fillCounts(counts, seed)
		oef, orw := p.FirstOrder(counts, m)
		return oef * orw
	}
	maxM := MaxBranch
	if p.Rates.Silent == 0 {
		maxM = 1
	}
	var descend func(d int) (int, float64)
	descend = func(d int) (int, float64) {
		if d == len(seed) {
			return xmath.MinimizeConvexInt(product, 1, maxM)
		}
		k, _ := xmath.MinimizeConvexInt(func(k int) float64 {
			seed[d] = k
			_, f := descend(d + 1)
			return f
		}, 1, MaxBranch)
		seed[d] = k
		return descend(d + 1)
	}
	m, _ = descend(0)
	return m
}

// optimizeReference reproduces the pre-overhaul Optimize end to end:
// the ternary first-order seed, the caps, and the sequential nested
// convex search (no pruning, no parallelism, no descent). The parity
// tests assert the production planner returns bit-identical plans.
func optimizeReference(ev *Evaluator) (Plan, error) {
	p := ev.Params()
	if p.Rates.Total() == 0 {
		return Plan{}, fmt.Errorf("multilevel: both error rates are zero; no finite optimal pattern")
	}
	L := len(p.Levels)
	seed := make([]int, L-1)
	counts := make([]int, L)
	seedM := firstOrderSeedTernary(p, seed, counts)
	caps := make([]int, L-1)
	for d := range caps {
		caps[d] = min(3*seed[d]+4, MaxBranch)
	}
	maxM := min(3*seedM+4, MaxBranch)
	if p.Rates.Silent == 0 {
		maxM = 1
	}
	var stats SearchStats
	return optimizeNested(context.Background(), ev, optimizeW, maxM, caps, &stats)
}

// optimizeWGolden is the leaf W search as it ran before optimizeW was
// seeded at the first-order period: a golden-section search over
// [W*/100, 100·W*] to a 1e-10 relative tolerance (~60 probes).
// Diverging probes already read as +Inf there (evalSpec).
func optimizeWGolden(ev *Evaluator, counts []int, m int) wEval {
	p := ev.Params()
	oef, orw := p.FirstOrder(counts, m)
	guess := xmath.SqrtRatio(oef, orw)
	if math.IsInf(guess, 1) || math.IsNaN(guess) || guess <= 0 {
		return wEval{err: fmt.Errorf("multilevel: no finite period guess for n=%v m=%d", counts, m)}
	}
	cl := ev.layout(m)
	h := func(w float64) float64 {
		return ev.evalSpec(cl, counts, w)/w - 1
	}
	w, hMin := xmath.MinimizeGolden(h, guess/100, guess*100, 1e-10)
	return wEval{w: w, h: hMin}
}
