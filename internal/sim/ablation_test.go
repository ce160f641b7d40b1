package sim

import (
	"math"
	"testing"

	"respat/internal/core"
	"respat/internal/faults"
)

// TestWeibullAblation exercises the non-exponential fault generators:
// with shape k < 1 (infant mortality / clustering) the optimal-for-
// exponential pattern still completes and the simulator stays
// deterministic, while the memoryless renewal sampling makes failures
// burst after each recovery.
func TestWeibullAblation(t *testing.T) {
	c := testCosts()
	p := mustLayout(t, core.PDMV, 2000, 2, 3, c.Recall)
	mtbf := 5000.0
	shape := 0.7
	scale := mtbf / math.Gamma(1+1/shape) // same long-run rate as Exp(1/mtbf)
	mkWeibull := func(run int) faults.Source {
		s1, s2 := faults.SplitSeed(77, uint64(run))
		w, err := faults.NewWeibull(shape, scale, s1, s2)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	cfg := Config{
		Pattern: p, Costs: c,
		Rates:    core.Rates{Silent: 1e-4}, // silent stays exponential
		Patterns: 20, Runs: 60, Seed: 5, ErrorsInOps: true,
		FailSource:   mkWeibull,
		SilentSource: nil,
	}
	res1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Total != res2.Total {
		t.Error("Weibull campaign not deterministic")
	}
	if res1.Total.FailStop == 0 {
		t.Error("expected Weibull failures")
	}
	// Sanity: overall failure count within 2x of the rate-matched
	// exponential campaign.
	expCfg := cfg
	expCfg.FailSource = nil
	expCfg.Rates = core.Rates{FailStop: 1 / mtbf, Silent: 1e-4}
	expRes, err := Run(expCfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res1.Total.FailStop) / float64(expRes.Total.FailStop)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("Weibull/exponential failure ratio %v implausible", ratio)
	}
}
