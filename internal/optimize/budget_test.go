package optimize

import (
	"math"
	"math/rand/v2"
	"testing"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/platform"
)

// exactPlanAllocs budgets a cold exact plan's allocations, averaged
// over BenchmarkExactPlanMix's seeded mix. A plan measures 3.5 allocs
// on average: the evaluator and the search's leaf memo, a map that
// grows with the leaves the search visits. The budget sits at about
// twice that count; allocation counts do not depend on the machine.
const exactPlanAllocs = 7

// exactPlanMix returns BenchmarkExactPlanMix's configurations: 16
// Table 2 platforms drawn at random with both error rates and the disk
// checkpoint and recovery costs scattered x0.5..x2, times all six
// families, each with its first-order plan.
func exactPlanMix(t *testing.T) (firsts []analytic.Plan, costs []core.Costs, rates []core.Rates) {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 17))
	scatter := func(x float64) float64 { return x * math.Exp((rng.Float64()*2-1)*math.Ln2) }
	plats := platform.Table2()
	for range 16 {
		p := plats[rng.IntN(len(plats))]
		p.Rates.FailStop = scatter(p.Rates.FailStop)
		p.Rates.Silent = scatter(p.Rates.Silent)
		p.Costs.DiskCkpt = scatter(p.Costs.DiskCkpt)
		p.Costs.DiskRec = scatter(p.Costs.DiskRec)
		for _, k := range core.Kinds() {
			first, err := analytic.Optimal(k, p.Costs, p.Rates)
			if err != nil {
				t.Fatal(err)
			}
			firsts, costs, rates = append(firsts, first), append(costs, p.Costs), append(rates, p.Rates)
		}
	}
	return firsts, costs, rates
}

// TestExactPlanBudget is the CI guard on a cold exact plan's
// allocations: one ExactFrom, on a fresh evaluator, over the seeded
// zipf-tail-shaped mix must stay within exactPlanAllocs on average.
func TestExactPlanBudget(t *testing.T) {
	firsts, costs, rates := exactPlanMix(t)
	allocs := testing.AllocsPerRun(3, func() {
		for i, first := range firsts {
			if _, err := ExactFrom(first, costs[i], rates[i]); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(firsts))
	t.Logf("cold exact plan: %.1f allocs on average over %d configurations", allocs, len(firsts))
	if allocs > exactPlanAllocs {
		t.Errorf("cold exact plan: %.1f allocs on average over %d configurations, budget %d",
			allocs, len(firsts), exactPlanAllocs)
	}
}
