package multilevel

import (
	"context"
	"fmt"

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
	return optimizeNested(context.Background(), ev, maxM, caps, &stats)
}
