package engine

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/faults"
	"respat/internal/xmath"
)

// counterApp is a deterministic test application: its state is the
// total work performed plus any injected garbage.
type counterApp struct {
	value   float64
	garbage float64
}

func (a *counterApp) Advance(w float64) error { a.value += w; return nil }

func (a *counterApp) Snapshot() ([]byte, error) {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(a.value))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(a.garbage))
	return buf, nil
}

func (a *counterApp) Restore(b []byte) error {
	if len(b) != 16 {
		return errors.New("bad snapshot")
	}
	a.value = math.Float64frombits(binary.LittleEndian.Uint64(b))
	a.garbage = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	return nil
}

func corruptCounter(app Application) error {
	c := app.(*counterApp)
	c.garbage += 1e9
	return nil
}

func testCosts() core.Costs {
	return core.Costs{
		DiskCkpt: 20, MemCkpt: 10, DiskRec: 7, MemRec: 3,
		GuarVer: 5, PartVer: 1, Recall: 0.8,
	}
}

func layout(t *testing.T, k core.Kind, w float64, n, m int, r float64) core.Pattern {
	t.Helper()
	p, err := core.Layout(k, w, n, m, r)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunValidation(t *testing.T) {
	c := testCosts()
	p := layout(t, core.PD, 100, 1, 1, 1)
	if _, err := Run(Config{Pattern: p, Costs: c, Patterns: 1}); err == nil {
		t.Error("nil App should fail")
	}
	app := &counterApp{}
	if _, err := Run(Config{App: app, Costs: c, Patterns: 1}); err == nil {
		t.Error("invalid pattern should fail")
	}
	if _, err := Run(Config{App: app, Pattern: p, Costs: c, Patterns: 0}); err == nil {
		t.Error("Patterns=0 should fail")
	}
	bad := c
	bad.Recall = 2
	if _, err := Run(Config{App: app, Pattern: p, Costs: bad, Patterns: 1}); err == nil {
		t.Error("invalid costs should fail")
	}
}

func TestErrorFreeRun(t *testing.T) {
	c := testCosts()
	p := layout(t, core.PDMV, 1000, 2, 3, c.Recall)
	app := &counterApp{}
	rep, err := Run(Config{App: app, Pattern: p, Costs: c, Patterns: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !xmath.Close(app.value, 3000, 1e-9) {
		t.Errorf("final value = %v, want 3000", app.value)
	}
	if app.garbage != 0 {
		t.Errorf("garbage = %v", app.garbage)
	}
	wantTime := 3 * (p.W + analytic.EF(core.PDMV, c, 2, 3)) // W + oef per pattern
	if !xmath.Close(rep.Time, wantTime, 1e-9) {
		t.Errorf("time = %v, want %v", rep.Time, wantTime)
	}
	if rep.FinalTainted {
		t.Error("clean run reported tainted")
	}
	if rep.DiskCkpts != 3 || rep.MemCkpts != 6 || rep.GuarVerifs != 6 || rep.PartVerifs != 12 {
		t.Errorf("counters: %+v", rep)
	}
	if !xmath.Close(rep.Overhead, (wantTime-3000)/3000, 1e-9) {
		t.Errorf("overhead = %v", rep.Overhead)
	}
}

func TestFailStopRecoveryRestoresState(t *testing.T) {
	c := testCosts()
	p := layout(t, core.PD, 100, 1, 1, 1)
	app := &counterApp{}
	rep, err := Run(Config{
		App: app, Pattern: p, Costs: c, Patterns: 2,
		FailStop: faults.NewTrace([]float64{50}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Same scenario as the simulator test: 50 lost + RD 7 + RM 3 +
	// 2 clean patterns of 135 = 330.
	if !xmath.Close(rep.Time, 330, 1e-9) {
		t.Errorf("time = %v, want 330", rep.Time)
	}
	if !xmath.Close(app.value, 200, 1e-9) {
		t.Errorf("value = %v, want 200 (lost work must not leak)", app.value)
	}
	if rep.FailStop != 1 || rep.DiskRecs != 1 {
		t.Errorf("counters: %+v", rep)
	}
}

func TestSilentCorruptionRolledBack(t *testing.T) {
	c := testCosts()
	p := layout(t, core.PD, 100, 1, 1, 1)
	app := &counterApp{}
	rep, err := Run(Config{
		App: app, Pattern: p, Costs: c, Patterns: 1,
		Silent:  faults.NewTrace([]float64{30}),
		Corrupt: corruptCounter,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !xmath.Close(rep.Time, 243, 1e-9) {
		t.Errorf("time = %v, want 243", rep.Time)
	}
	if app.garbage != 0 {
		t.Errorf("garbage %v survived rollback", app.garbage)
	}
	if !xmath.Close(app.value, 100, 1e-9) {
		t.Errorf("value = %v, want 100", app.value)
	}
	if rep.DetectByGuar != 1 || rep.MemRecs != 1 || rep.FinalTainted {
		t.Errorf("report: %+v", rep)
	}
}

func TestCustomPartialVerifierDetects(t *testing.T) {
	// An application-level detector: garbage makes the state
	// implausible, which the partial verifier checks directly.
	c := testCosts()
	p := layout(t, core.PDV, 100, 1, 2, c.Recall)
	app := &counterApp{}
	detector := VerifierFunc(func(a Application) (bool, error) {
		return a.(*counterApp).garbage == 0, nil
	})
	rep, err := Run(Config{
		App: app, Pattern: p, Costs: c, Patterns: 1,
		Silent:  faults.NewTrace([]float64{20}),
		Corrupt: corruptCounter,
		Partial: detector,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DetectByPart != 1 {
		t.Errorf("DetectByPart = %d, want 1 (custom verifier)", rep.DetectByPart)
	}
	if app.garbage != 0 || !xmath.Close(app.value, 100, 1e-9) {
		t.Errorf("state: value=%v garbage=%v", app.value, app.garbage)
	}
}

func TestImperfectGuaranteedVerifierTaintsResult(t *testing.T) {
	// A broken "guaranteed" verifier lets the corruption through; the
	// engine must report the taint and the garbage persists.
	c := testCosts()
	p := layout(t, core.PD, 100, 1, 1, 1)
	app := &counterApp{}
	blind := VerifierFunc(func(Application) (bool, error) { return true, nil })
	rep, err := Run(Config{
		App: app, Pattern: p, Costs: c, Patterns: 1,
		Silent:     faults.NewTrace([]float64{30}),
		Corrupt:    corruptCounter,
		Guaranteed: blind,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FinalTainted {
		t.Error("taint not reported")
	}
	if app.garbage != 1e9 {
		t.Errorf("garbage = %v, want 1e9", app.garbage)
	}
	// No recovery happened: time is one clean traversal.
	if !xmath.Close(rep.Time, p.W+c.GuarVer+c.MemCkpt+c.DiskCkpt, 1e-9) {
		t.Errorf("time = %v", rep.Time)
	}
}

func TestTaintPropagatesThroughCheckpoints(t *testing.T) {
	// With a blind guaranteed verifier, the corrupted state reaches the
	// memory and disk checkpoints; a later fail-stop restores the
	// *corrupted* disk snapshot, and the engine's ground truth must
	// still report the taint.
	c := testCosts()
	p := layout(t, core.PD, 100, 1, 1, 1)
	app := &counterApp{}
	blind := VerifierFunc(func(Application) (bool, error) { return true, nil })
	rep, err := Run(Config{
		App: app, Pattern: p, Costs: c, Patterns: 2,
		Silent:     faults.NewTrace([]float64{30}),
		FailStop:   faults.NewTrace([]float64{150}), // strikes in pattern 2
		Corrupt:    corruptCounter,
		Guaranteed: blind,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FinalTainted {
		t.Error("taint lost across checkpoint/recovery")
	}
	if app.garbage != 1e9 {
		t.Errorf("garbage = %v, want 1e9", app.garbage)
	}
}

func TestMemStorageMissingCheckpoint(t *testing.T) {
	var s MemStorage
	if _, err := s.Load(Memory); err == nil {
		t.Error("empty storage should fail")
	}
}

func TestWorkFuncAdapter(t *testing.T) {
	var total float64
	f := WorkFunc(func(w float64) error { total += w; return nil })
	if err := f.Advance(5); err != nil || total != 5 {
		t.Error("Advance broken")
	}
	if snap, err := f.Snapshot(); err != nil || snap == nil {
		t.Error("Snapshot broken")
	}
	if err := f.Restore(nil); err != nil {
		t.Error("Restore broken")
	}
}

func TestFinalStateCorrectUnderRandomInjection(t *testing.T) {
	c := testCosts()
	rng := rand.New(rand.NewPCG(5, 8))
	for trial := 0; trial < 40; trial++ {
		kind := core.Kinds()[rng.IntN(6)]
		p := layout(t, kind, 200+rng.Float64()*800, 1+rng.IntN(3), 1+rng.IntN(5), c.Recall)
		patterns := 1 + rng.IntN(3)
		var failT, silT []float64
		now := 0.0
		for i := 0; i < rng.IntN(10); i++ {
			now += rng.Float64() * 500
			failT = append(failT, now)
		}
		now = 0
		for i := 0; i < rng.IntN(10); i++ {
			now += rng.Float64() * 300
			silT = append(silT, now)
		}
		app := &counterApp{}
		_, err := Run(Config{
			App: app, Pattern: p, Costs: c, Patterns: patterns,
			ErrorsInOps: rng.IntN(2) == 0,
			FailStop:    faults.NewTrace(failT),
			Silent:      faults.NewTrace(silT),
			Corrupt:     corruptCounter,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := p.W * float64(patterns)
		if math.Abs(app.value-want)/want > 1e-9 {
			t.Fatalf("trial %d: value %v, want %v", trial, app.value, want)
		}
		if app.garbage != 0 {
			t.Fatalf("trial %d: garbage %v", trial, app.garbage)
		}
	}
}
