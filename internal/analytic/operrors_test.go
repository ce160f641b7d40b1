package analytic

import (
	"math"
	"testing"

	"respat/internal/core"
	"respat/internal/xmath"
)

func TestExactWithOpErrorsExceedsPlainExact(t *testing.T) {
	// Exposing operations to failures can only lengthen the execution.
	c, r := hera()
	for _, k := range core.Kinds() {
		plan, err := Optimal(k, c, r)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := ExactExpectedTime(plan.Pattern, c, r)
		if err != nil {
			t.Fatal(err)
		}
		withOps, err := ExactExpectedTimeWithOpErrors(plan.Pattern, c, r)
		if err != nil {
			t.Fatal(err)
		}
		if withOps <= plain {
			t.Errorf("%v: with-op-errors %v <= plain %v", k, withOps, plain)
		}
		// At Hera MTBFs the difference is a small correction (<1%).
		if (withOps-plain)/plain > 0.01 {
			t.Errorf("%v: op-error correction %v too large", k, (withOps-plain)/plain)
		}
	}
}

func TestExactWithOpErrorsZeroFailRate(t *testing.T) {
	// Without fail-stop errors the two evaluators coincide: silent
	// errors never strike operations.
	c, _ := hera()
	p, err := core.Layout(core.PDV, 9000, 1, 4, c.Recall)
	if err != nil {
		t.Fatal(err)
	}
	r := core.Rates{Silent: 3.38e-6}
	plain, err := ExactExpectedTime(p, c, r)
	if err != nil {
		t.Fatal(err)
	}
	withOps, err := ExactExpectedTimeWithOpErrors(p, c, r)
	if err != nil {
		t.Fatal(err)
	}
	if !xmath.Close(plain, withOps, 1e-9) {
		t.Errorf("zero lambda_f: %v vs %v", plain, withOps)
	}
}

func TestExactWithOpErrorsValidation(t *testing.T) {
	c, r := hera()
	if _, err := ExactExpectedTimeWithOpErrors(core.Pattern{}, c, r); err == nil {
		t.Error("invalid pattern should fail")
	}
	p, _ := core.Layout(core.PD, 100, 1, 1, 1)
	bad := c
	bad.DiskCkpt = math.NaN()
	if _, err := ExactExpectedTimeWithOpErrors(p, bad, r); err == nil {
		t.Error("invalid costs should fail")
	}
	if _, err := ExactExpectedTimeWithOpErrors(p, c, core.Rates{FailStop: -1}); err == nil {
		t.Error("invalid rates should fail")
	}
}
