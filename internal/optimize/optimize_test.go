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

// TestOptimizeWDivergingSeed: a leaf whose expected time diverges at
// the first-order period itself (a checkpoint ~10⁶ MTBFs long) reads
// those probes as +Inf and still returns the finite minimum of its
// range, which lies at its lower end.
func TestOptimizeWDivergingSeed(t *testing.T) {
	c := core.Costs{DiskCkpt: 1e8, MemCkpt: 10, DiskRec: 1e8, MemRec: 10, GuarVer: 10, PartVer: 1, Recall: 0.8}
	r := core.Rates{FailStop: 1e-2, Silent: 1e-3}
	ev, err := analytic.NewEvaluator(c, r)
	if err != nil {
		t.Fatal(err)
	}
	guess := math.Sqrt(analytic.EF(core.PD, c, 1, 1) / analytic.RW(core.PD, c, r, 1, 1))
	if _, err := ev.EvalLayoutOverhead(core.PD, 1, 1, guess); err == nil {
		t.Fatal("the first-order period no longer diverges; pick a costlier checkpoint")
	}
	w, h, err := optimizeW(ev, core.PD, 1, 1)
	if err != nil || math.IsInf(h, 0) || math.IsNaN(h) {
		t.Fatalf("W=%v H=%v err=%v, want a finite minimum", w, h, err)
	}
	if math.Abs(w-guess/100) > 1e-6*w {
		t.Errorf("W = %v, want the range's lower end %v", w, guess/100)
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

// TestExactSurvivesDivergingProbes pins a ×100-scattered PDM
// configuration whose leaves from n=57 up have a finite minimum but
// diverge (`analytic: expected time diverged`) near 100·W*. A leaf
// that failed on any diverging probe read as +Inf to the n search,
// which then settled on n=56 (H=0.6349); n=130 gives H=0.5952.
func TestExactSurvivesDivergingProbes(t *testing.T) {
	c := core.Costs{DiskCkpt: 3199.3473108079647, MemCkpt: 0.09718712355866518, DiskRec: 183.7665487502915,
		MemRec: 0.31726524666198186, GuarVer: 77.04759652904565, PartVer: 0.0019117273283946498, Recall: 0.8}
	r := core.Rates{FailStop: 1.7056963900614352e-06, Silent: 0.0005025106407712845}
	plan, err := Exact(core.PDM, c, r)
	if err != nil {
		t.Fatal(err)
	}
	if plan.N != 130 || plan.M != 1 || plan.Overhead > 0.5953 {
		t.Errorf("plan n=%d m=%d H=%.4f, want n=130 m=1 H=0.5952", plan.N, plan.M, plan.Overhead)
	}
}
