package multilevel

import (
	"encoding/binary"
	"math"
	"testing"

	"respat/internal/engine"
	"respat/internal/faults"
)

// counterApp accumulates advanced work — its state is the amount of
// deterministic progress, so rollback correctness is observable.
type counterApp struct {
	work float64
}

func (a *counterApp) Advance(w float64) error { a.work += w; return nil }
func (a *counterApp) Snapshot() ([]byte, error) {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, math.Float64bits(a.work))
	return b, nil
}
func (a *counterApp) Restore(b []byte) error {
	a.work = math.Float64frombits(binary.LittleEndian.Uint64(b))
	return nil
}

func TestRuntimeErrorFree(t *testing.T) {
	p := threeLevel()
	s := UniformSpec(3600, []int{3, 2}, 2)
	app := &counterApp{}
	rep, err := RunEngine(EngineConfig{App: app, Params: p, Spec: s, Patterns: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * p.ErrorFreeTime(s); math.Abs(rep.Time-want) > 1e-9 {
		t.Errorf("time %v, want error-free %v", rep.Time, want)
	}
	if math.Abs(rep.Work-4*3600) > 1e-9 || math.Abs(app.work-4*3600) > 1e-9 {
		t.Errorf("work %v / app %v, want %v", rep.Work, app.work, 4*3600.0)
	}
	wantCkpts := [MaxLevels]int64{4 * 6, 4 * 2, 4 * 1}
	if rep.Ckpts != wantCkpts {
		t.Errorf("checkpoints %v, want %v", rep.Ckpts, wantCkpts)
	}
	if rep.GuarVerifs != 4*6 || rep.PartVerifs != 4*6*1 {
		t.Errorf("verifs guar=%d part=%d, want 24/24", rep.GuarVerifs, rep.PartVerifs)
	}
	if rep.FinalTainted {
		t.Error("fault-free run reports a tainted final state")
	}
}

// TestRuntimeLevelRollback: a single fail-stop error of a forced level
// rolls back exactly to that level's last boundary and the application
// still ends in the fault-free state.
func TestRuntimeLevelRollback(t *testing.T) {
	for lvl := 1; lvl <= 3; lvl++ {
		p := threeLevel()
		// Force every fail-stop error to the level under test.
		for l := range p.Levels {
			p.Levels[l].Share = 0
		}
		p.Levels[lvl-1].Share = 1
		s := UniformSpec(3600, []int{3, 2}, 1)
		app := &counterApp{}
		// One error mid-way through the pattern's 5th interval
		// (exposure clock: errors strike computations only).
		rep, err := RunEngine(EngineConfig{
			App: app, Params: p, Spec: s, Patterns: 1,
			FailStop: faults.NewTrace([]float64{4.2 * 600}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.FailStop != 1 || rep.Recs[lvl-1] != 1 {
			t.Fatalf("level %d: FailStop=%d Recs=%v", lvl, rep.FailStop, rep.Recs)
		}
		if math.Abs(app.work-3600) > 1e-9 {
			t.Errorf("level %d: final app work %v, want 3600", lvl, app.work)
		}
		// Rollback targets with counts [6 2 1] (level-2 boundaries after
		// intervals 2 and 5): interval 4 (level 1), interval 3 (level 2),
		// interval 0 (level 3). The error loses 120 s of the interrupted
		// attempt and the replay re-executes the rolled-over intervals
		// with their verifications and re-commits their checkpoints
		// (intervals 0-3 span four level-1 boundaries, one of which —
		// after interval 2 — also rewrites level 2).
		extra := map[int]float64{
			1: 120 + p.Levels[0].Rec,
			2: 120 + p.Levels[1].Rec + 600 + p.GuarVer + p.Levels[0].Ckpt,
			3: 120 + p.Levels[2].Rec + 4*(600+p.GuarVer) + 4*p.Levels[0].Ckpt + p.Levels[1].Ckpt,
		}[lvl]
		if want := p.ErrorFreeTime(s) + extra; math.Abs(rep.Time-want) > 1e-9 {
			t.Errorf("level %d: time %v, want %v", lvl, rep.Time, want)
		}
	}
}

// TestRuntimeSilentDetection: an injected silent error is detected by
// the closing guaranteed verification, rolled back at level 1, and the
// final state is clean and fault-free.
func TestRuntimeSilentDetection(t *testing.T) {
	p := threeLevel()
	s := UniformSpec(3600, []int{3, 2}, 1)
	app := &counterApp{}
	corrupted := 0
	rep, err := RunEngine(EngineConfig{
		App: app, Params: p, Spec: s, Patterns: 1,
		Silent:  faults.NewTrace([]float64{2.5 * 600}),
		Corrupt: func(a engine.Application) error { corrupted++; a.(*counterApp).work += 1e6; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Silent != 1 || rep.DetectByGuar != 1 || rep.SilentRecs != 1 {
		t.Fatalf("Silent=%d DetectByGuar=%d SilentRecs=%d", rep.Silent, rep.DetectByGuar, rep.SilentRecs)
	}
	if corrupted != 1 {
		t.Fatalf("Corrupt called %d times", corrupted)
	}
	if rep.FinalTainted || math.Abs(app.work-3600) > 1e-9 {
		t.Errorf("final state tainted=%v work=%v, want clean 3600", rep.FinalTainted, app.work)
	}
	// The corrupted attempt of interval 2 runs to its guaranteed
	// verification (600 s of doomed work + V*), then rolls back at
	// level 1 and replays.
	want := p.ErrorFreeTime(s) + 600 + p.GuarVer + p.Levels[0].Rec
	if math.Abs(rep.Time-want) > 1e-9 {
		t.Errorf("time %v, want %v", rep.Time, want)
	}
}

// TestRuntimeBoundarySwap: the Boundary hook swaps the spec at a
// pattern boundary — the multilevel swap point for an adaptive loop —
// and the report accounts the mixed pattern lengths.
func TestRuntimeBoundarySwap(t *testing.T) {
	p := threeLevel()
	first := UniformSpec(3600, []int{3, 2}, 2)
	second := UniformSpec(1800, []int{2, 2}, 1)
	var boundaries []float64
	rep, err := RunEngine(EngineConfig{
		App: &counterApp{}, Params: p, Spec: first, Patterns: 3,
		Boundary: func(done int, rep Report) (*Spec, error) {
			boundaries = append(boundaries, rep.Work)
			if done == 1 {
				return &second, nil
			}
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlanSwaps != 1 {
		t.Fatalf("PlanSwaps = %d, want 1", rep.PlanSwaps)
	}
	if want := 3600 + 2*1800.0; math.Abs(rep.Work-want) > 1e-9 {
		t.Errorf("work %v, want %v", rep.Work, want)
	}
	if want := p.ErrorFreeTime(first) + 2*p.ErrorFreeTime(second); math.Abs(rep.Time-want) > 1e-9 {
		t.Errorf("time %v, want %v", rep.Time, want)
	}
	if len(boundaries) != 3 || boundaries[0] != 3600 || boundaries[2] != rep.Work {
		t.Errorf("boundary work snapshots %v", boundaries)
	}
	// An invalid swap spec aborts the run even at the final boundary.
	bad := Spec{W: -1, Counts: []int{1, 1, 1}, M: 1}
	_, err = RunEngine(EngineConfig{
		App: &counterApp{}, Params: p, Spec: first, Patterns: 1,
		Boundary: func(int, Report) (*Spec, error) { return &bad, nil },
	})
	if err == nil {
		t.Error("invalid final-boundary swap spec not surfaced")
	}
}

// TestRuntimeTargetWork: the TargetWork stopping rule completes equal
// useful work regardless of the spec mix.
func TestRuntimeTargetWork(t *testing.T) {
	p := threeLevel()
	s := UniformSpec(1000, []int{2}, 1)
	p2 := Params{Levels: p.Levels[:2], GuarVer: p.GuarVer, PartVer: p.PartVer, Recall: p.Recall, Rates: p.Rates}
	p2.Levels = []Level{
		{Ckpt: 5, Rec: 6, Share: 0.7},
		{Ckpt: 200, Rec: 260, Share: 0.3},
	}
	rep, err := RunEngine(EngineConfig{App: &counterApp{}, Params: p2, Spec: s, TargetWork: 3500})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Work < 3500 || rep.Work > 3500+1000 {
		t.Errorf("work %v outside [3500, 4500]", rep.Work)
	}
}

// TestExecutorReuseAfterSwaps: a Reset executor replays a run exactly,
// Boundary swaps of the previous run included.
func TestExecutorReuseAfterSwaps(t *testing.T) {
	p := threeLevel()
	s := UniformSpec(3600, []int{3, 2}, 2)
	alt := UniformSpec(1800, []int{2, 1}, 3)
	ex, err := NewExecutor(EngineConfig{
		App: &counterApp{}, Params: p, Spec: s,
		Boundary: func(int, Report) (*Spec, error) { return &alt, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	var reps []Report
	for i := 0; i < 2; i++ {
		ex.cfg.LevelDraw = faults.NewBernoulli(1, 2)
		ex.Reset(faults.NewTrace([]float64{500, 4000}), faults.NewTrace([]float64{900}))
		rep, err := ex.Run(4)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	if reps[0] != reps[1] || reps[0].PlanSwaps != 3 {
		t.Fatalf("reused executor diverged: %+v vs %+v", reps[0], reps[1])
	}
}
