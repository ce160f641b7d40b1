package multilevel

import (
	"math"
	"testing"

	"respat/internal/core"
	"respat/internal/platform"
)

// threeLevel is a small hierarchy used across the tests.
func threeLevel() Params {
	return Params{
		Levels: []Level{
			{Ckpt: 5, Rec: 6, Share: 0.5},
			{Ckpt: 30, Rec: 40, Share: 0.3},
			{Ckpt: 200, Rec: 260, Share: 0.2},
		},
		GuarVer: 6, PartVer: 0.4, Recall: 0.7,
		Rates: core.Rates{FailStop: 4e-5, Silent: 5e-5},
	}
}

func TestParamsValidate(t *testing.T) {
	ok := threeLevel()
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"no levels", func(p *Params) { p.Levels = nil }},
		{"too many levels", func(p *Params) { p.Levels = make([]Level, MaxLevels+1) }},
		{"negative ckpt", func(p *Params) { p.Levels[1].Ckpt = -1 }},
		{"NaN rec", func(p *Params) { p.Levels[0].Rec = math.NaN() }},
		{"share above one", func(p *Params) { p.Levels[0].Share = 1.5 }},
		{"shares not normalised", func(p *Params) { p.Levels[0].Share = 0.9 }},
		{"negative guar", func(p *Params) { p.GuarVer = -1 }},
		{"zero recall", func(p *Params) { p.Recall = 0 }},
		{"bad rate", func(p *Params) { p.Rates.Silent = math.Inf(1) }},
	}
	for _, c := range cases {
		p := threeLevel()
		c.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validation passed", c.name)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	s := UniformSpec(3600, []int{6, 2}, 3)
	if got := s.Counts; got[0] != 12 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("UniformSpec counts = %v, want [12 2 1]", got)
	}
	if err := s.Validate(3); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{W: 0, Counts: []int{1}, M: 1},
		{W: 3600, Counts: []int{2}, M: 1},          // n_L != 1
		{W: 3600, Counts: []int{3, 2, 1}, M: 1},    // 3 not a multiple of 2
		{W: 3600, Counts: []int{4, 2, 1}, M: 0},    // m < 1
		{W: 3600, Counts: []int{4, 1}, M: 1},       // counts/levels mismatch (3 levels)
		{W: math.NaN(), Counts: []int{1, 1}, M: 1}, // NaN W
	}
	levels := []int{1, 1, 3, 3, 3, 2}
	for i, s := range bad {
		if err := s.Validate(levels[i]); err == nil {
			t.Errorf("case %d (%v at %d levels): validation passed", i, s, levels[i])
		}
	}
}

func TestBoundaryLevels(t *testing.T) {
	p := threeLevel()
	layout, err := p.Layout(UniformSpec(3600, []int{3, 2}, 2))
	if err != nil {
		t.Fatal(err)
	}
	// counts = [6 2 1]: level-2 boundaries every 3 intervals, level 3
	// closes the pattern.
	want := []int{1, 1, 2, 1, 1, 3}
	for t1, w := range want {
		if got := layout.BoundaryLevel(t1); got != w {
			t.Errorf("boundary after interval %d: level %d, want %d", t1, got, w)
		}
	}
	// Level-aware rollback targets.
	if got := layout.RollbackTo(1, 4); got != 4 {
		t.Errorf("level-1 rollback from interval 4 -> %d, want 4", got)
	}
	if got := layout.RollbackTo(2, 4); got != 3 {
		t.Errorf("level-2 rollback from interval 4 -> %d, want 3", got)
	}
	if got := layout.RollbackTo(3, 4); got != 0 {
		t.Errorf("level-3 rollback from interval 4 -> %d, want 0", got)
	}
}

func TestPickLevel(t *testing.T) {
	p := threeLevel()
	if got := p.PickLevel(0.1); got != 1 {
		t.Errorf("u=0.1 -> level %d, want 1", got)
	}
	if got := p.PickLevel(0.6); got != 2 {
		t.Errorf("u=0.6 -> level %d, want 2", got)
	}
	if got := p.PickLevel(0.95); got != 3 {
		t.Errorf("u=0.95 -> level %d, want 3", got)
	}
	if got := p.PickLevel(0.9999999999999999); got != 3 {
		t.Errorf("u~1 -> level %d, want 3 (rounding guard)", got)
	}
}

// errorFreeTime returns the wall-clock of one error-free traversal of
// s: W plus the error-free overhead oef of Params.FirstOrder.
func errorFreeTime(p Params, s Spec) float64 {
	oef, _ := p.FirstOrder(s.Counts, s.M)
	return s.W + oef
}

func TestErrorFreeTime(t *testing.T) {
	p := threeLevel()
	s := UniformSpec(3600, []int{3, 2}, 2)
	// 6 level-1 intervals: each 1 interior verification + 1 guaranteed;
	// checkpoints: 6×C1 + 2×C2 + 1×C3.
	want := 3600 + 6*(1*0.4+6) + 6*5 + 2*30 + 1*200
	if got := errorFreeTime(p, s); math.Abs(got-want) > 1e-9 {
		t.Errorf("error-free time %v, want %v", got, want)
	}
	// The evaluator reduces to the error-free time at zero rates.
	p.Rates = core.Rates{}
	got, err := ExpectedTime(p, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("zero-rate expected time %v, want error-free %v", got, want)
	}
}

func TestFromPlatform(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	for levels := 1; levels <= MaxLevels; levels++ {
		p, err := FromPlatform(hera, levels)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("levels=%d: %v", levels, err)
		}
		if p.L() != levels {
			t.Fatalf("levels=%d: got %d", levels, p.L())
		}
		// Endpoints pin to the platform's memory and disk figures.
		top := p.Levels[levels-1]
		if math.Abs(top.Ckpt-hera.Costs.DiskCkpt) > 1e-9 {
			t.Errorf("levels=%d: top checkpoint %v, want CD=%v", levels, top.Ckpt, hera.Costs.DiskCkpt)
		}
		if levels > 1 && math.Abs(p.Levels[0].Ckpt-hera.Costs.MemCkpt) > 1e-9 {
			t.Errorf("levels=%d: bottom checkpoint %v, want CM=%v", levels, p.Levels[0].Ckpt, hera.Costs.MemCkpt)
		}
		// Costs and cumulative recoveries grow with the level.
		for l := 1; l < levels; l++ {
			if p.Levels[l].Ckpt <= p.Levels[l-1].Ckpt || p.Levels[l].Rec <= p.Levels[l-1].Rec {
				t.Errorf("levels=%d: level %d not more expensive than level %d", levels, l+1, l)
			}
		}
	}
	if _, err := FromPlatform(hera, 0); err == nil {
		t.Error("levels=0 accepted")
	}
	if _, err := FromPlatform(hera, MaxLevels+1); err == nil {
		t.Error("levels beyond MaxLevels accepted")
	}
}

// TestOptimizeHierarchyHelps: on every Table 2 platform the planned
// two-level hierarchy (cheap local recovery for most fail-stop errors,
// cheap silent rollback) strictly beats the single-level plan that
// pays the disk for everything — the claim the harness figure
// quantifies.
func TestOptimizeHierarchyHelps(t *testing.T) {
	for _, pl := range platform.Table2() {
		var prev float64
		for levels := 1; levels <= 2; levels++ {
			p, err := FromPlatform(pl, levels)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := Optimize(p)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Overhead <= 0 || math.IsNaN(plan.Overhead) {
				t.Fatalf("%s L=%d: overhead %v", pl.Name, levels, plan.Overhead)
			}
			if err := plan.Spec.Validate(levels); err != nil {
				t.Fatalf("%s L=%d: invalid optimal spec: %v", pl.Name, levels, err)
			}
			if levels == 2 && plan.Overhead >= prev {
				t.Errorf("%s: 2-level optimum %.4f not below single-level %.4f", pl.Name, plan.Overhead, prev)
			}
			prev = plan.Overhead
		}
	}
}

// TestOptimizeIsOptimal: the planner's optimum is not beaten by any
// neighbouring integer layout or a ±20% period change.
func TestOptimizeIsOptimal(t *testing.T) {
	p := threeLevel()
	plan, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	base := plan.Overhead
	check := func(s Spec, label string) {
		if s.Validate(p.L()) != nil {
			return
		}
		h, err := ev.Overhead(s)
		if err != nil {
			t.Fatal(err)
		}
		if h < base-1e-9 {
			t.Errorf("%s (%v) beats the optimum: %.6f < %.6f", label, s, h, base)
		}
	}
	k1 := plan.Spec.Counts[0] / plan.Spec.Counts[1]
	k2 := plan.Spec.Counts[1]
	for _, d1 := range []int{-1, 0, 1} {
		for _, d2 := range []int{-1, 0, 1} {
			for _, dm := range []int{-1, 0, 1} {
				if k1+d1 < 1 || k2+d2 < 1 || plan.Spec.M+dm < 1 {
					continue
				}
				check(UniformSpec(plan.Spec.W, []int{k1 + d1, k2 + d2}, plan.Spec.M+dm), "neighbour")
			}
		}
	}
	for _, f := range []float64{0.8, 1.2} {
		s := plan.Spec
		s.W = plan.Spec.W * f
		check(s, "period shift")
	}
}
