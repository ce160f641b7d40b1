package multilevel_test

import (
	"encoding/binary"
	"math"
	"testing"

	"respat/internal/engine"
	"respat/internal/faults"
	"respat/internal/multilevel"
	"respat/internal/platform"
	"respat/internal/sim"
	"respat/internal/xmath"
)

// stateApp is a deterministic stateful application: its value is the
// work performed and its garbage the injected corruptions.
type stateApp struct{ value, garbage float64 }

func (a *stateApp) Advance(w float64) error { a.value += w; return nil }

func (a *stateApp) Snapshot() ([]byte, error) {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, math.Float64bits(a.value))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(a.garbage))
	return b, nil
}

func (a *stateApp) Restore(b []byte) error {
	a.value = math.Float64frombits(binary.LittleEndian.Uint64(b))
	a.garbage = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	return nil
}

// TestRunEngineMatchesSimulator is the multilevel analogue of
// engine's TestEngineMatchesSimulatorOnIdenticalTraces: RunEngine
// protecting a stateful application, fed the fail, silent, detection
// and level-draw streams RunMultilevel derives for run 0, must match a
// one-run simulation in time and counters, and the application must
// end in the fault-free state.
func TestRunEngineMatchesSimulator(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	var total multilevel.Counters
	for trial := 0; trial < 16; trial++ {
		levels := 1 + trial%multilevel.MaxLevels
		p, err := multilevel.FromPlatform(hera, levels)
		if err != nil {
			t.Fatal(err)
		}
		p.InteriorGuaranteed = trial%3 == 2
		plan, err := multilevel.FirstOrderPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		// Run the Hera plan at 40x its rates so every trial sees both
		// error types, several recoveries and rollbacks.
		p.Rates.FailStop *= 40
		p.Rates.Silent *= 40
		seed, patterns := uint64(1000+trial), 3+trial%4
		res, err := sim.RunMultilevel(sim.MultilevelConfig{
			Params: p, Spec: plan.Spec, Patterns: patterns, Runs: 1, Seed: seed, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Run 0 of a campaign seeded `seed` draws its fail, silent,
		// detect and level streams from indices 0, 1, 2 and 3.
		stream := func(i uint64) (uint64, uint64) { return faults.SplitSeed(seed, i) }
		s1, s2 := stream(0)
		fail, err := faults.NewExponential(p.Rates.FailStop, s1, s2)
		if err != nil {
			t.Fatal(err)
		}
		s1, s2 = stream(1)
		silent, err := faults.NewExponential(p.Rates.Silent, s1, s2)
		if err != nil {
			t.Fatal(err)
		}
		d1, d2 := stream(2)
		l1, l2 := stream(3)
		app := &stateApp{}
		rep, err := multilevel.RunEngine(multilevel.EngineConfig{
			App: app, Params: p, Spec: plan.Spec, Patterns: patterns,
			FailStop: fail, Silent: silent,
			Detect:    faults.NewBernoulli(d1, d2),
			LevelDraw: faults.NewBernoulli(l1, l2),
			Corrupt:   func(a engine.Application) error { a.(*stateApp).garbage += 1e9; return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if !xmath.Close(rep.Time, res.WallTime.Mean(), 1e-9) {
			t.Fatalf("trial %d (L=%d): engine time %v vs sim %v", trial, levels, rep.Time, res.WallTime.Mean())
		}
		if rep.Counters != res.Total {
			t.Fatalf("trial %d (L=%d): engine counters %+v vs sim %+v", trial, levels, rep.Counters, res.Total)
		}
		if rep.FailStop == 0 || rep.Silent == 0 {
			t.Fatalf("trial %d (L=%d): no errors injected (%+v); raise the rates", trial, levels, rep.Counters)
		}
		total.Add(rep.Counters)
		want := plan.Spec.W * float64(patterns)
		if math.Abs(app.value-want)/want > 1e-9 || app.garbage != 0 {
			t.Fatalf("trial %d: final state %v (+%v garbage), want %v", trial, app.value, app.garbage, want)
		}
	}
	if total.DetectByPart == 0 || total.DetectByGuar == 0 || total.Recs[multilevel.MaxLevels-1] == 0 {
		t.Errorf("trials miss a protocol path: %+v", total)
	}
}
