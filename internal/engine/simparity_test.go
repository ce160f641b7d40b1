package engine_test

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"respat/internal/core"
	"respat/internal/engine"
	"respat/internal/faults"
	"respat/internal/sim"
	"respat/internal/xmath"
)

// stateApp is a deterministic stateful application: its value is the
// work performed and its garbage the injected corruptions.
type stateApp struct {
	value   float64
	garbage float64
}

func (a *stateApp) Advance(w float64) error { a.value += w; return nil }

func (a *stateApp) Snapshot() ([]byte, error) {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(a.value))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(a.garbage))
	return buf, nil
}

func (a *stateApp) Restore(b []byte) error {
	if len(b) != 16 {
		return errors.New("bad snapshot")
	}
	a.value = math.Float64frombits(binary.LittleEndian.Uint64(b))
	a.garbage = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	return nil
}

func corruptState(app engine.Application) error {
	app.(*stateApp).garbage += 1e9
	return nil
}

// TestEngineMatchesSimulatorOnIdenticalTraces holds the application
// path of the runtime to the simulator: fed identical arrival traces
// and the same detection stream, an engine run acting on real state
// (snapshots, restores, storage) and a one-run simulation (no
// application) must produce the same time and counters, and the
// application must end in the fault-free state.
func TestEngineMatchesSimulatorOnIdenticalTraces(t *testing.T) {
	c := core.Costs{DiskCkpt: 20, MemCkpt: 10, DiskRec: 7, MemRec: 3, GuarVer: 5, PartVer: 1, Recall: 0.8}
	rng := rand.New(rand.NewPCG(99, 77))
	for trial := 0; trial < 25; trial++ {
		kind := core.Kinds()[trial%6]
		p, err := core.Layout(kind, 500+rng.Float64()*2000, 1+rng.IntN(3), 1+rng.IntN(4), c.Recall)
		if err != nil {
			t.Fatal(err)
		}
		patterns := 1 + rng.IntN(4)
		seed := rng.Uint64()

		// Build identical finite arrival traces for both runs.
		mkTrace := func(rate float64, s1, s2 uint64) []float64 {
			src, err := faults.NewExponential(rate, s1, s2)
			if err != nil {
				t.Fatal(err)
			}
			var ts []float64
			now := 0.0
			for i := 0; i < 300; i++ {
				now = src.Next(now)
				ts = append(ts, now)
			}
			return ts
		}
		failTimes := mkTrace(1e-4, seed, 1)
		silentTimes := mkTrace(3e-4, seed, 2)
		errorsInOps := trial%2 == 0

		simRes, err := sim.Run(sim.Config{
			Pattern: p, Costs: c, Patterns: patterns, Runs: 1, Seed: seed,
			ErrorsInOps:  errorsInOps,
			FailSource:   func(int) faults.Source { return faults.NewTrace(failTimes) },
			SilentSource: func(int) faults.Source { return faults.NewTrace(silentTimes) },
		})
		if err != nil {
			t.Fatal(err)
		}
		d1, d2 := faults.SplitSeed(seed, 2) // sim's detect stream for run 0
		app := &stateApp{}
		rep, err := engine.Run(engine.Config{
			App: app, Pattern: p, Costs: c, Patterns: patterns,
			ErrorsInOps: errorsInOps,
			FailStop:    faults.NewTrace(failTimes),
			Silent:      faults.NewTrace(silentTimes),
			Corrupt:     corruptState,
			Detect:      faults.NewBernoulli(d1, d2),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !xmath.Close(rep.Time, simRes.WallTime.Mean(), 1e-9) {
			t.Fatalf("trial %d (%v): engine time %v vs sim %v", trial, kind, rep.Time, simRes.WallTime.Mean())
		}
		if rep.Counters != simRes.Total {
			t.Fatalf("trial %d (%v): engine counters %+v vs sim %+v", trial, kind, rep.Counters, simRes.Total)
		}
		want := p.W * float64(patterns)
		if math.Abs(app.value-want)/want > 1e-9 || app.garbage != 0 {
			t.Fatalf("trial %d: final state %v (+%v garbage), want %v", trial, app.value, app.garbage, want)
		}
	}
}
