package analytic

import (
	"math"
	"sync"
	"testing"

	"respat/internal/core"
	"respat/internal/platform"
)

// relErr returns |a-b| / max(|a|,|b|).
func relErr(a, b float64) float64 {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 0
	}
	return math.Abs(a-b) / scale
}

// oldExactExpectedTime is the pre-Evaluator reference path: it walks
// every chunk of the concrete pattern individually.
func oldExactExpectedTime(t *testing.T, p core.Pattern, c core.Costs, r core.Rates) float64 {
	t.Helper()
	recall := c.Recall
	if p.InteriorGuaranteed {
		recall = 1
	}
	interiorCost := c.PartVer
	if p.InteriorGuaranteed {
		interiorCost = c.GuarVer
	}
	var prevSum, total float64
	for i := 0; i < p.N(); i++ {
		ei := exactSegmentTime(p, c, r, i, prevSum, recall, interiorCost)
		total += ei
		prevSum += ei
	}
	return total + c.DiskCkpt
}

// TestEvaluatorGoldenParity asserts that the fast layout path of the
// Evaluator matches the chunk-by-chunk evaluation to within 1e-12
// relative error for every family on every Table 2 platform, at the
// optimal (n*, m*, W*) and at off-optimal probes of the kind the
// golden-section search issues.
func TestEvaluatorGoldenParity(t *testing.T) {
	for _, p := range platform.Table2() {
		ev, err := NewEvaluator(p.Costs, p.Rates)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range core.Kinds() {
			plan, err := Optimal(k, p.Costs, p.Rates)
			if err != nil {
				t.Fatalf("%s/%v: %v", p.Name, k, err)
			}
			for _, probe := range []struct {
				n, m  int
				scale float64
			}{
				{plan.N, plan.M, 1},
				{plan.N, plan.M, 0.37},
				{plan.N, plan.M, 2.9},
				{plan.N + 2, plan.M + 3, 1},
				{1, 1, 0.5},
			} {
				w := plan.W * probe.scale
				pat, err := core.Layout(k, w, probe.n, probe.m, p.Costs.Recall)
				if err != nil {
					t.Fatalf("%s/%v: %v", p.Name, k, err)
				}
				want, err := ExactExpectedTime(pat, p.Costs, p.Rates)
				if err != nil {
					t.Fatalf("%s/%v: %v", p.Name, k, err)
				}
				wantOld := oldExactExpectedTime(t, pat, p.Costs, p.Rates)
				got, err := ev.EvalLayout(k, probe.n, probe.m, w)
				if err != nil {
					t.Fatalf("%s/%v: %v", p.Name, k, err)
				}
				if e := relErr(got, want); e > 1e-12 {
					t.Errorf("%s/%v n=%d m=%d x%v: evaluator %v vs wrapper %v (rel %v)",
						p.Name, k, probe.n, probe.m, probe.scale, got, want, e)
				}
				if e := relErr(got, wantOld); e > 1e-12 {
					t.Errorf("%s/%v n=%d m=%d x%v: evaluator %v vs chunk-walk %v (rel %v)",
						p.Name, k, probe.n, probe.m, probe.scale, got, wantOld, e)
				}
			}
		}
	}
}

// TestEvaluatorConcurrentUse asserts the concurrency contract: one
// fresh Evaluator shared by 8 goroutines returns, through EvalLayout
// and ExpectedTime, the bits a sequential pass on a second evaluator
// returns at every point of a (family, n, m, W) grid. The shared
// evaluator starts fresh, so one that memoised layouts would write its
// memo from every goroutine at once, which go test -race reports. Each
// goroutine starts at its own offset in the grid and so re-evaluates
// every layout after others: no evaluation may leave state behind.
func TestEvaluatorConcurrentUse(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		k    core.Kind
		n, m int
		w    float64
		pat  core.Pattern
	}
	var grid []point
	for _, k := range core.Kinds() {
		for n := 1; n <= 4; n++ {
			for m := 1; m <= 6; m++ {
				for _, w := range []float64{3000, 20000, 90000} {
					pat, err := core.Layout(k, w, n, m, hera.Costs.Recall)
					if err != nil {
						t.Fatal(err)
					}
					grid = append(grid, point{k, n, m, w, pat})
				}
			}
		}
	}
	eval := func(ev *Evaluator, p point) ([2]float64, error) {
		layout, err := ev.EvalLayout(p.k, p.n, p.m, p.w)
		if err != nil {
			return [2]float64{}, err
		}
		general, err := ev.ExpectedTime(p.pat)
		return [2]float64{layout, general}, err
	}
	newEv := func() *Evaluator {
		ev, err := NewEvaluator(hera.Costs, hera.Rates)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}

	seq := newEv()
	want := make([][2]float64, len(grid))
	for i, p := range grid {
		if want[i], err = eval(seq, p); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	shared := newEv()
	got := make([][][2]float64, workers)
	var wg sync.WaitGroup
	for g := range workers {
		got[g] = make([][2]float64, len(grid))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range grid {
				i := (j + g*len(grid)/workers) % len(grid)
				var err error
				if got[g][i], err = eval(shared, grid[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, p := range grid {
			for f, name := range []string{"EvalLayout", "ExpectedTime"} {
				if math.Float64bits(got[g][i][f]) != math.Float64bits(want[i][f]) {
					t.Fatalf("goroutine %d: %s %v n=%d m=%d W=%v: %v, sequential %v",
						g, name, p.k, p.n, p.m, p.w, got[g][i][f], want[i][f])
				}
			}
		}
	}
}

// TestEvaluatorRejectsInvalid mirrors the wrapper's validation.
func TestEvaluatorRejectsInvalid(t *testing.T) {
	if _, err := NewEvaluator(core.Costs{Recall: 0}, core.Rates{}); err == nil {
		t.Error("zero recall should fail validation")
	}
	if _, err := NewEvaluator(core.Costs{DiskCkpt: -1, Recall: 1}, core.Rates{}); err == nil {
		t.Error("negative cost should fail validation")
	}
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(hera.Costs, hera.Rates)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.EvalLayout(core.PDMV, 2, 2, -5); err == nil {
		t.Error("negative W should fail")
	}
	if _, err := ev.EvalLayout(core.PDMV, 2, 2, math.NaN()); err == nil {
		t.Error("NaN W should fail")
	}
	if _, err := ev.EvalLayout(core.PDMV, 0, 0, 100); err == nil {
		t.Error("non-positive n, m should fail")
	}
}

// TestEvaluatorClampsFixedDimensions: families that fix n or m to 1
// ignore larger requests, exactly like core.Layout.
func TestEvaluatorClampsFixedDimensions(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(hera.Costs, hera.Rates)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ev.EvalLayout(core.PD, 5, 7, 9000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.EvalLayout(core.PD, 1, 1, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("PD should clamp (n, m) to (1, 1): %v vs %v", a, b)
	}
}
