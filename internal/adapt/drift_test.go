package adapt

import (
	"reflect"
	"testing"

	"respat/internal/core"
	"respat/internal/engine"
	"respat/internal/faultfit"
	"respat/internal/faults"
)

// driftScenario runs one engine campaign under mid-campaign rate drift:
// the platform starts at the prior rates and degrades ~25x at a fixed
// exposure time. The static run keeps the plan that is optimal at the
// prior rates; the adaptive run wires a Controller into the pattern
// boundary. Everything derives from the seed, so repeats are
// bit-identical.
func driftScenario(t *testing.T, seed uint64, adaptive bool) engine.Report {
	t.Helper()
	costs := testCosts()
	prior := core.Rates{FailStop: 2e-5, Silent: 5e-5}
	const (
		driftAt    = 100_000.0 // exposure seconds at which the platform degrades
		targetWork = 300_000.0
		shiftFS    = 5e-4 // 25x prior
		shiftSil   = 1.25e-3
	)
	fsSeed1, fsSeed2 := faults.SplitSeed(seed, 1)
	silSeed1, silSeed2 := faults.SplitSeed(seed, 2)
	detSeed1, detSeed2 := faults.SplitSeed(seed, 3)
	fsSrc, err := NewPiecewise([]RateStep{
		{Start: 0, Lambda: prior.FailStop}, {Start: driftAt, Lambda: shiftFS},
	}, fsSeed1, fsSeed2)
	if err != nil {
		t.Fatal(err)
	}
	silSrc, err := NewPiecewise([]RateStep{
		{Start: 0, Lambda: prior.Silent}, {Start: driftAt, Lambda: shiftSil},
	}, silSeed1, silSeed2)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(Config{
		Kind: core.PDMV, Costs: costs, Prior: prior,
		FailStop: faultfit.OnlineConfig{Window: 8},
		Silent:   faultfit.OnlineConfig{Window: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{
		App:         engine.WorkFunc(func(float64) error { return nil }),
		Pattern:     sess.Plan().Pattern,
		Costs:       costs,
		TargetWork:  targetWork,
		FailStop:    fsSrc,
		Silent:      silSrc,
		Detect:      faults.NewBernoulli(detSeed1, detSeed2),
		ErrorsInOps: true,
	}
	if adaptive {
		cfg.Boundary = NewController(sess).Boundary
	}
	rep, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Work < targetWork {
		t.Fatalf("run stopped at %v work, target %v", rep.Work, targetWork)
	}
	return rep
}

func TestAdaptiveBeatsStaticUnderDrift(t *testing.T) {
	const seed = 42
	static := driftScenario(t, seed, false)
	adaptv := driftScenario(t, seed, true)

	if adaptv.PlanSwaps < 1 {
		t.Fatalf("adaptive run performed no plan swaps (report %+v)", adaptv)
	}
	if static.PlanSwaps != 0 {
		t.Fatalf("static run performed %d plan swaps, want 0", static.PlanSwaps)
	}
	if adaptv.Overhead >= static.Overhead {
		t.Fatalf("adaptive overhead %.4f not below static %.4f", adaptv.Overhead, static.Overhead)
	}
	t.Logf("static overhead %.4f, adaptive overhead %.4f (%d swaps)",
		static.Overhead, adaptv.Overhead, adaptv.PlanSwaps)
}

func TestDriftScenarioBitIdenticalAcrossRepeats(t *testing.T) {
	const seed = 7
	for _, adaptive := range []bool{false, true} {
		a := driftScenario(t, seed, adaptive)
		b := driftScenario(t, seed, adaptive)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("adaptive=%v: repeat runs differ:\n%+v\n%+v", adaptive, a, b)
		}
	}
}
