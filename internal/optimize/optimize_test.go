package optimize

import (
	"math"
	"testing"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/platform"
)

func heraParams(t *testing.T) (core.Costs, core.Rates) {
	t.Helper()
	p, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	return p.Costs, p.Rates
}

func TestOptimizeWNearFirstOrder(t *testing.T) {
	// At Hera scale (large MTBF) the exact-optimal W is within a few
	// percent of the first-order W* for every family.
	c, r := heraParams(t)
	for _, k := range core.Kinds() {
		plan, err := analytic.Optimal(k, c, r)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := analytic.NewEvaluator(c, r)
		if err != nil {
			t.Fatal(err)
		}
		w, h, err := optimizeW(ev, k, plan.N, plan.M)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(w-plan.W)/plan.W > 0.10 {
			t.Errorf("%v: exact W %v vs first-order %v", k, w, plan.W)
		}
		if math.Abs(h-plan.Overhead) > 0.01 {
			t.Errorf("%v: exact H %v vs first-order %v", k, h, plan.Overhead)
		}
	}
}

func TestOptimizeWDegenerate(t *testing.T) {
	c, _ := heraParams(t)
	ev, err := analytic.NewEvaluator(c, core.Rates{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := optimizeW(ev, core.PD, 1, 1); err != analytic.ErrDegenerate {
		t.Errorf("err = %v, want ErrDegenerate", err)
	}
}

func TestExactPlanBeatsFirstOrderPlan(t *testing.T) {
	// The exact planner can only do better (or equal) under the exact
	// model than the first-order plan evaluated exactly.
	c, r := heraParams(t)
	for _, k := range []core.Kind{core.PD, core.PDV, core.PDM, core.PDMV} {
		cmp, err := Compare(k, c, r)
		if err != nil {
			t.Fatal(err)
		}
		if cmp.Exact.Overhead > cmp.FirstOrderExactOverhead+1e-9 {
			t.Errorf("%v: exact plan %v worse than first-order plan %v",
				k, cmp.Exact.Overhead, cmp.FirstOrderExactOverhead)
		}
		if cmp.Regret < -1e-9 {
			t.Errorf("%v: negative regret %v", k, cmp.Regret)
		}
		// Headline ablation: the paper's first-order plan is within 1%
		// of the true optimum at Table 2 scale.
		if cmp.Regret > 0.01 {
			t.Errorf("%v: first-order regret %v exceeds 1%%", k, cmp.Regret)
		}
		if err := cmp.Exact.Pattern.Validate(); err != nil {
			t.Errorf("%v: invalid exact pattern: %v", k, err)
		}
	}
}

func TestExactPlanIntegerNeighbourhood(t *testing.T) {
	// The exact plan's (n, m) should be close to the first-order one
	// at Hera scale.
	c, r := heraParams(t)
	cmp, err := Compare(core.PDMV, c, r)
	if err != nil {
		t.Fatal(err)
	}
	if d := cmp.Exact.N - cmp.FirstOrder.N; d < -2 || d > 2 {
		t.Errorf("exact n %d far from first-order %d", cmp.Exact.N, cmp.FirstOrder.N)
	}
	if d := cmp.Exact.M - cmp.FirstOrder.M; d < -4 || d > 4 {
		t.Errorf("exact m %d far from first-order %d", cmp.Exact.M, cmp.FirstOrder.M)
	}
}

func TestExactPlanString(t *testing.T) {
	c, r := heraParams(t)
	plan, err := Exact(core.PD, c, r)
	if err != nil {
		t.Fatal(err)
	}
	if plan.String() == "" {
		t.Error("empty String")
	}
}
