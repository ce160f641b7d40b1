package analytic_test

import (
	"math"
	"testing"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/sim"
)

// TestSimulatorMatchesOpErrorModel cross-validates the Section 5
// analytical refinement: with fail-stop errors striking operations too
// (ErrorsInOps), the simulated mean pattern time must match
// ExactExpectedTimeWithOpErrors (oracle_test.go).
func TestSimulatorMatchesOpErrorModel(t *testing.T) {
	c := core.Costs{
		DiskCkpt: 20, MemCkpt: 10, DiskRec: 7, MemRec: 3,
		GuarVer: 5, PartVer: 1, Recall: 0.8,
	}
	r := core.Rates{FailStop: 2e-4, Silent: 3e-4}
	p, err := core.Layout(core.PDMV, 3000, 2, 3, c.Recall)
	if err != nil {
		t.Fatal(err)
	}
	want, err := analytic.ExactExpectedTimeWithOpErrors(p, c, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Pattern: p, Costs: c, Rates: r,
		Patterns: 30, Runs: 500, Seed: 21, ErrorsInOps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gotPerPattern := res.WallTime.Mean() / float64(res.Patterns)
	tol := 4*res.WallTime.CI95()/float64(res.Patterns) + 0.005*want
	if math.Abs(gotPerPattern-want) > tol {
		t.Errorf("simulated per-pattern %v vs §5 model %v (tol %v)", gotPerPattern, want, tol)
	}
	// And the §5 model must fit better than the ops-error-free one.
	plain, err := analytic.ExactExpectedTime(p, c, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotPerPattern-want) > math.Abs(gotPerPattern-plain) {
		t.Errorf("§5 model (%v) fits worse than plain (%v) for simulated %v", want, plain, gotPerPattern)
	}
}
