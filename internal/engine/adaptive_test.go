package engine

import (
	"errors"
	"math"
	"testing"

	"respat/internal/core"
	"respat/internal/faults"
)

func boundaryCosts() core.Costs {
	return core.Costs{
		DiskCkpt: 5, MemCkpt: 1, DiskRec: 5, MemRec: 1,
		GuarVer: 0.5, PartVer: 0.1, Recall: 0.8,
	}
}

func mustUniform(t *testing.T, w float64, n, m int) core.Pattern {
	t.Helper()
	p, err := core.Uniform(w, n, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunTargetWorkStopsAtTarget(t *testing.T) {
	p := mustUniform(t, 100, 1, 1)
	rep, err := Run(Config{
		App:     WorkFunc(func(float64) error { return nil }),
		Pattern: p, Costs: boundaryCosts(), TargetWork: 350,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 patterns of 100 s: the first total >= 350.
	if rep.Work != 400 {
		t.Fatalf("work = %v, want 400", rep.Work)
	}
}

func TestRunRequiresAStoppingRule(t *testing.T) {
	p := mustUniform(t, 100, 1, 1)
	_, err := Run(Config{
		App:     WorkFunc(func(float64) error { return nil }),
		Pattern: p, Costs: boundaryCosts(),
	})
	if err == nil {
		t.Fatal("Patterns == 0 and TargetWork == 0 must be rejected")
	}
}

func TestBoundaryHookSwapsPattern(t *testing.T) {
	first := mustUniform(t, 100, 1, 1)
	second := mustUniform(t, 50, 2, 1)
	var calls []int
	rep, err := Run(Config{
		App:     WorkFunc(func(float64) error { return nil }),
		Pattern: first, Costs: boundaryCosts(), Patterns: 4,
		Boundary: func(done int, rep Report) (*core.Pattern, error) {
			calls = append(calls, done)
			if done == 2 {
				p := second
				return &p, nil
			}
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 4 || calls[0] != 1 || calls[3] != 4 {
		t.Fatalf("boundary calls = %v, want [1 2 3 4]", calls)
	}
	if rep.PlanSwaps != 1 {
		t.Fatalf("plan swaps = %d, want 1", rep.PlanSwaps)
	}
	// Two patterns of 100 s, then two of 50 s.
	if rep.Work != 300 {
		t.Fatalf("work = %v, want 300", rep.Work)
	}
	// The swapped pattern has 2 segments: memory checkpoints double per
	// instance (2 instances x 2 segments + 2 instances x 1 segment).
	if rep.MemCkpts != 2*2+2*1 {
		t.Fatalf("mem ckpts = %d, want 6", rep.MemCkpts)
	}
}

func TestBoundaryHookFinalSwapNotInstalled(t *testing.T) {
	first := mustUniform(t, 100, 1, 1)
	second := mustUniform(t, 50, 2, 1)
	calls := 0
	rep, err := Run(Config{
		App:     WorkFunc(func(float64) error { return nil }),
		Pattern: first, Costs: boundaryCosts(), Patterns: 2,
		Boundary: func(done int, rep Report) (*core.Pattern, error) {
			calls++
			if done == 2 { // final boundary: the run is over
				p := second
				return &p, nil
			}
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("boundary calls = %d, want 2 (the final observation must still be fed)", calls)
	}
	if rep.PlanSwaps != 0 {
		t.Fatalf("plan swaps = %d, want 0 (a swap at the final boundary never executes)", rep.PlanSwaps)
	}
	if rep.Work != 200 {
		t.Fatalf("work = %v, want 200", rep.Work)
	}
}

func TestBoundaryHookErrorAborts(t *testing.T) {
	p := mustUniform(t, 100, 1, 1)
	boom := errors.New("boom")
	_, err := Run(Config{
		App:     WorkFunc(func(float64) error { return nil }),
		Pattern: p, Costs: boundaryCosts(), Patterns: 3,
		Boundary: func(int, Report) (*core.Pattern, error) { return nil, boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestBoundaryHookRejectsInvalidSwap(t *testing.T) {
	p := mustUniform(t, 100, 1, 1)
	// An invalid swap pattern aborts the run wherever it is returned —
	// including at the final boundary, where the swap itself would be
	// skipped (error surfacing must not depend on the stopping rule).
	for _, patterns := range []int{3, 1} {
		_, err := Run(Config{
			App:     WorkFunc(func(float64) error { return nil }),
			Pattern: p, Costs: boundaryCosts(), Patterns: patterns,
			Boundary: func(int, Report) (*core.Pattern, error) {
				return &core.Pattern{}, nil // invalid: no segments
			},
		})
		if err == nil {
			t.Fatalf("Patterns=%d: invalid swap pattern must abort the run", patterns)
		}
	}
}

func TestReportExposesErrorClockExposure(t *testing.T) {
	p := mustUniform(t, 100, 1, 1)
	fs, err := faults.NewExponential(1e-3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		App:     WorkFunc(func(float64) error { return nil }),
		Pattern: p, Costs: boundaryCosts(), Patterns: 10,
		FailStop: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Chunk work is the only fail-stop exposure without ErrorsInOps; it
	// must cover at least the useful work (re-executions add more).
	if rep.FailStopExposure < rep.Work {
		t.Fatalf("fail-stop exposure %v below useful work %v", rep.FailStopExposure, rep.Work)
	}
	if math.IsNaN(rep.SilentExposure) || rep.SilentExposure < rep.Work {
		t.Fatalf("silent exposure %v below useful work %v", rep.SilentExposure, rep.Work)
	}
}

// TestExecutorReuseAfterSwaps: a Reset executor replays a run exactly,
// Boundary swaps of the previous run included.
func TestExecutorReuseAfterSwaps(t *testing.T) {
	first := mustUniform(t, 100, 1, 1)
	second := mustUniform(t, 50, 2, 1)
	ex, err := NewExecutor(Config{
		App:     WorkFunc(func(float64) error { return nil }),
		Pattern: first, Costs: boundaryCosts(),
		Boundary: func(int, Report) (*core.Pattern, error) { return &second, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	var reps []Report
	for i := 0; i < 2; i++ {
		ex.Reset(faults.NewTrace([]float64{30, 260}), faults.NewTrace([]float64{120}))
		rep, err := ex.Run(5)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	if reps[0] != reps[1] || reps[0].PlanSwaps != 4 {
		t.Fatalf("reused executor diverged: %+v vs %+v", reps[0], reps[1])
	}
}
