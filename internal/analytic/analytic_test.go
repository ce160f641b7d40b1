package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"respat/internal/core"
	"respat/internal/xmath"
)

// hera returns the Table 2 parameters of the Hera platform with the
// simulation defaults RD=CD, RM=CM, V*=CM, V=V*/100, r=0.8.
func hera() (core.Costs, core.Rates) {
	c := core.Costs{
		DiskCkpt: 300, MemCkpt: 15.4, DiskRec: 300, MemRec: 15.4,
		GuarVer: 15.4, PartVer: 0.154, Recall: 0.8,
	}
	r := core.Rates{FailStop: 9.46e-7, Silent: 3.38e-6}
	return c, r
}

func TestFstar(t *testing.T) {
	// m = 1 gives 1 regardless of recall.
	if core.Fstar(1, 0.3) != 1 || core.Fstar(1, 1) != 1 {
		t.Error("core.Fstar(1, .) should be 1")
	}
	// r = 1 reduces to (1+1/m)/2.
	for m := 2; m <= 10; m++ {
		want := (1 + 1/float64(m)) / 2
		if got := core.Fstar(m, 1); !xmath.Close(got, want, 1e-12) {
			t.Errorf("core.Fstar(%d,1) = %v, want %v", m, got, want)
		}
	}
	// Known value: m=3, r=0.8 -> (1 + 1.2/2.8)/2.
	if got, want := core.Fstar(3, 0.8), (1+1.2/2.8)/2; !xmath.Close(got, want, 1e-12) {
		t.Errorf("core.Fstar(3,0.8) = %v, want %v", got, want)
	}
	// Decreasing in m: more verifications reduce re-executed work.
	for m := 1; m < 20; m++ {
		if !(core.Fstar(m+1, 0.8) < core.Fstar(m, 0.8)) {
			t.Errorf("Fstar not decreasing at m=%d", m)
		}
	}
}

func TestEFKnownValues(t *testing.T) {
	c, _ := hera()
	// PD: V* + CM + CD.
	if got := EF(core.PD, c, 7, 9); !xmath.Close(got, 330.8, 1e-9) {
		t.Errorf("EF(PD) = %v, want 330.8 (n,m must be clamped)", got)
	}
	// PDV*: mV* + CM + CD with m=3.
	if got, want := EF(core.PDVStar, c, 1, 3), 3*15.4+15.4+300; !xmath.Close(got, want, 1e-9) {
		t.Errorf("EF(PDV*,m=3) = %v, want %v", got, want)
	}
	// PDV: (m-1)V + V* + CM + CD with m=3.
	if got, want := EF(core.PDV, c, 1, 3), 2*0.154+330.8; !xmath.Close(got, want, 1e-9) {
		t.Errorf("EF(PDV,m=3) = %v, want %v", got, want)
	}
	// PDM: n(V*+CM) + CD with n=4.
	if got, want := EF(core.PDM, c, 4, 1), 4*30.8+300.0; !xmath.Close(got, want, 1e-9) {
		t.Errorf("EF(PDM,n=4) = %v, want %v", got, want)
	}
	// PDMV: n(m-1)V + n(V*+CM) + CD with n=2, m=3.
	if got, want := EF(core.PDMV, c, 2, 3), 2*2*0.154+2*30.8+300; !xmath.Close(got, want, 1e-9) {
		t.Errorf("EF(PDMV) = %v, want %v", got, want)
	}
}

func TestRWKnownValues(t *testing.T) {
	c, r := hera()
	// PD: λs + λf/2.
	if got, want := RW(core.PD, c, r, 3, 3), 3.38e-6+9.46e-7/2; !xmath.Close(got, want, 1e-12) {
		t.Errorf("RW(PD) = %v, want %v", got, want)
	}
	// PDM with n=4: λs/4 + λf/2.
	if got, want := RW(core.PDM, c, r, 4, 1), 3.38e-6/4+9.46e-7/2; !xmath.Close(got, want, 1e-12) {
		t.Errorf("RW(PDM) = %v, want %v", got, want)
	}
	// PDV with m=1 reduces to PD.
	if got, want := RW(core.PDV, c, r, 1, 1), RW(core.PD, c, r, 1, 1); !xmath.Close(got, want, 1e-15) {
		t.Errorf("RW(PDV,m=1) = %v, want %v", got, want)
	}
	// PDMV* uses recall 1.
	got := RW(core.PDMVStar, c, r, 2, 4)
	want := (1+1.0/4)/2*3.38e-6/2 + 9.46e-7/2
	if !xmath.Close(got, want, 1e-12) {
		t.Errorf("RW(PDMV*) = %v, want %v", got, want)
	}
}

func TestTheorem1HeraPD(t *testing.T) {
	c, r := hera()
	plan, err := Optimal(core.PD, c, r)
	if err != nil {
		t.Fatal(err)
	}
	// W* = sqrt(330.8 / 3.853e-6) = 9265.9 s (~2.6 h).
	if !xmath.Close(plan.W, 9265.9, 1e-3) {
		t.Errorf("W* = %v, want ~9265.9", plan.W)
	}
	if !xmath.Close(plan.Overhead, 0.071404, 1e-3) {
		t.Errorf("H* = %v, want ~0.0714", plan.Overhead)
	}
	if plan.N != 1 || plan.M != 1 {
		t.Errorf("PD plan has n=%d m=%d, want 1,1", plan.N, plan.M)
	}
}

func TestYoungDalyLimitFailStopOnly(t *testing.T) {
	// With λs = 0 and free verification/memory checkpoint, PD reduces
	// to the classical Young/Daly W* = sqrt(2 CD/λf).
	c := core.Costs{DiskCkpt: 300, DiskRec: 300, Recall: 1}
	r := core.Rates{FailStop: 1e-5}
	plan, err := Optimal(core.PD, c, r)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(2 * 300 / 1e-5)
	if !xmath.Close(plan.W, want, 1e-9) {
		t.Errorf("W* = %v, want Young/Daly %v", plan.W, want)
	}
}

func TestSilentOnlyLimit(t *testing.T) {
	// With λf = 0, PD's optimum is sqrt((V*+CM)/λs) when CD = 0.
	c := core.Costs{MemCkpt: 10, MemRec: 10, GuarVer: 5, Recall: 1}
	r := core.Rates{Silent: 1e-5}
	plan, err := Optimal(core.PD, c, r)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(15 / 1e-5)
	if !xmath.Close(plan.W, want, 1e-9) {
		t.Errorf("W* = %v, want %v", plan.W, want)
	}
}

func TestOptimalHeraAllKindsOrdering(t *testing.T) {
	// Richer patterns never do worse (first-order) on a real platform:
	// H*(PDMV) <= H*(PDMV*) <= ... is not a strict chain, but the
	// endpoints must hold and every family beats or matches PD.
	c, r := hera()
	base, err := Optimal(core.PD, c, r)
	if err != nil {
		t.Fatal(err)
	}
	var best float64 = math.Inf(1)
	for _, k := range core.Kinds() {
		plan, err := Optimal(k, c, r)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if plan.Overhead > base.Overhead*(1+1e-12) {
			t.Errorf("%v overhead %v exceeds PD %v", k, plan.Overhead, base.Overhead)
		}
		if plan.Overhead < best {
			best = plan.Overhead
		}
		if err := plan.Pattern.Validate(); err != nil {
			t.Errorf("%v pattern invalid: %v", k, err)
		}
		if !xmath.Close(plan.Pattern.W, plan.W, 1e-12) {
			t.Errorf("%v pattern W mismatch", k)
		}
	}
	full, _ := Optimal(core.PDMV, c, r)
	if !xmath.Close(full.Overhead, best, 1e-9) {
		t.Errorf("PDMV %v is not the best overhead (best %v)", full.Overhead, best)
	}
}

func TestOptimalHeraPDMVParameters(t *testing.T) {
	c, r := hera()
	plan, err := Optimal(core.PDMV, c, r)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-computed rational optima: n̄* = 5.92, m̄* = 16.76.
	if math.Abs(plan.RationalN-5.92) > 0.02 {
		t.Errorf("RationalN = %v, want ~5.92", plan.RationalN)
	}
	if math.Abs(plan.RationalM-16.76) > 0.05 {
		t.Errorf("RationalM = %v, want ~16.76", plan.RationalM)
	}
	if plan.N < 5 || plan.N > 6 || plan.M < 16 || plan.M > 17 {
		t.Errorf("integer plan n=%d m=%d outside neighbourhood", plan.N, plan.M)
	}
	// H* ~ 0.0394 from the closed form.
	if math.Abs(plan.Overhead-0.0394) > 0.001 {
		t.Errorf("H* = %v, want ~0.0394", plan.Overhead)
	}
}

func TestOptimalDegeneratesGracefully(t *testing.T) {
	c, _ := hera()
	if _, err := Optimal(core.PDMV, c, core.Rates{}); err != ErrDegenerate {
		t.Errorf("zero rates: err = %v, want ErrDegenerate", err)
	}
	// λf = 0 makes n̄* diverge; the planner must cap, not hang or NaN.
	plan, err := Optimal(core.PDM, c, core.Rates{Silent: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if plan.N != MaxSplit {
		t.Errorf("n = %d, want cap %d when disk checkpoints are never needed", plan.N, MaxSplit)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Invalid inputs are rejected.
	bad := c
	bad.Recall = 0
	if _, err := Optimal(core.PD, bad, core.Rates{Silent: 1e-6}); err == nil {
		t.Error("invalid costs should fail")
	}
	if _, err := Optimal(core.PD, c, core.Rates{Silent: -1}); err == nil {
		t.Error("invalid rates should fail")
	}
}

// TestTableOverheadMatchesContinuousMinimum verifies the Table 1
// closed-form H* against a brute-force continuous minimisation of
// 2·sqrt(oef·orw) over real (n, m) for each family.
func TestTableOverheadMatchesContinuousMinimum(t *testing.T) {
	c, r := hera()
	for _, k := range core.Kinds() {
		prodAt := func(n, m float64) float64 {
			return efCont(k, c, n, m) * rwCont(k, c, r, n, m)
		}
		// Nested golden-section over n and m in generous ranges.
		inner := func(n float64) float64 {
			if !k.MultiChunk() {
				return prodAt(n, 1)
			}
			_, fm := xmath.MinimizeGolden(func(m float64) float64 { return prodAt(n, math.Max(m, 1)) }, 1, 200, 1e-12)
			return fm
		}
		var fmin float64
		if k.MultiSegment() {
			_, fmin = xmath.MinimizeGolden(func(n float64) float64 { return inner(math.Max(n, 1)) }, 1, 200, 1e-12)
		} else {
			fmin = inner(1)
		}
		numeric := 2 * math.Sqrt(fmin)
		closed := TableOverhead(k, c, r)
		if !xmath.Close(numeric, closed, 1e-5) {
			t.Errorf("%v: numeric continuous H* %v vs closed form %v", k, numeric, closed)
		}
	}
}

func TestIntegerPlanNeverBeatsContinuous(t *testing.T) {
	c, r := hera()
	for _, k := range core.Kinds() {
		plan, err := Optimal(k, c, r)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Overhead < TableOverhead(k, c, r)-1e-12 {
			t.Errorf("%v: integer plan %v beats continuous bound %v", k, plan.Overhead, TableOverhead(k, c, r))
		}
		// And should be within 2% of it for realistic parameters.
		if plan.Overhead > TableOverhead(k, c, r)*1.02 {
			t.Errorf("%v: integer plan %v far above continuous %v", k, plan.Overhead, TableOverhead(k, c, r))
		}
	}
}

func TestOverheadAtMinimisedAtWstar(t *testing.T) {
	c, r := hera()
	for _, k := range core.Kinds() {
		plan, err := Optimal(k, c, r)
		if err != nil {
			t.Fatal(err)
		}
		f := func(w float64) float64 { return overheadAt(k, c, r, plan.N, plan.M, w) }
		w, _ := xmath.MinimizeGolden(f, plan.W/100, plan.W*100, 1e-12)
		if !xmath.Close(w, plan.W, 1e-4) {
			t.Errorf("%v: OverheadAt minimised at %v, plan says %v", k, w, plan.W)
		}
		if !xmath.Close(f(plan.W), plan.Overhead, 1e-9) {
			t.Errorf("%v: OverheadAt(W*) = %v, plan overhead %v", k, f(plan.W), plan.Overhead)
		}
	}
}

func TestExpectedLost(t *testing.T) {
	// Zero rate or zero work: nothing lost.
	if ExpectedLost(0, 100) != 0 || ExpectedLost(1e-6, 0) != 0 {
		t.Error("degenerate ExpectedLost should be 0")
	}
	// Small λw: E[T_lost] ~ w/2.
	if got := ExpectedLost(1e-9, 100); !xmath.Close(got, 50, 1e-6) {
		t.Errorf("ExpectedLost small = %v, want ~50", got)
	}
	// Large λw: E[T_lost] -> 1/λ.
	if got := ExpectedLost(1, 1e9); !xmath.Close(got, 1, 1e-9) {
		t.Errorf("ExpectedLost large = %v, want ~1", got)
	}
	// Series branch agreement: at λw just above the switch threshold
	// the exact expression and the series must agree to high accuracy.
	w := 100.0
	lambda := 1.05e-4 / w // exact branch, just above the switch
	exact := ExpectedLost(lambda, w)
	series := w/2 - lambda*w*w/12
	if math.Abs(exact-series) > 1e-8 {
		t.Errorf("branch mismatch: exact %v vs series %v", exact, series)
	}
}

// prop1Exact is an independent implementation of the exact PD formula
// from the proof of Proposition 1.
func prop1Exact(w float64, c core.Costs, r core.Rates) float64 {
	lf, ls := r.FailStop, r.Silent
	eAll := math.Exp((lf + ls) * w)
	eS := math.Exp(ls * w)
	return (eAll-eS)/lf - w*eS + eS*(w+c.GuarVer) + c.DiskCkpt + c.MemCkpt +
		(eAll-eS)*c.DiskRec + (eAll-1)*c.MemRec
}

func TestExactMatchesProp1ClosedForm(t *testing.T) {
	c, r := hera()
	for _, w := range []float64{500, 5000, 9265.9, 50000} {
		p, err := core.Layout(core.PD, w, 1, 1, c.Recall)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExactExpectedTime(p, c, r)
		if err != nil {
			t.Fatal(err)
		}
		want := prop1Exact(w, c, r)
		if !xmath.Close(got, want, 1e-10) {
			t.Errorf("W=%v: exact %v vs closed form %v", w, got, want)
		}
	}
}

func TestExactZeroRatesIsErrorFree(t *testing.T) {
	c, _ := hera()
	for _, k := range core.Kinds() {
		p, err := core.Layout(k, 7200, 3, 4, c.Recall)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExactExpectedTime(p, c, core.Rates{})
		if err != nil {
			t.Fatal(err)
		}
		if want := 7200 + EF(k, c, 3, 4); !xmath.Close(got, want, 1e-10) {
			t.Errorf("%v: exact at zero rates %v != error-free %v", k, got, want)
		}
	}
}

func TestExactMonotoneInRates(t *testing.T) {
	c, r := hera()
	p, err := core.Layout(core.PDMV, 20000, 4, 6, c.Recall)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, scale := range []float64{0, 0.5, 1, 2, 4} {
		e, err := ExactExpectedTime(p, c, r.Scale(scale, scale))
		if err != nil {
			t.Fatal(err)
		}
		if e <= prev {
			t.Errorf("expected time not increasing at scale %v: %v <= %v", scale, e, prev)
		}
		prev = e
	}
}

func TestExactCloseToSecondOrderAtLargeMTBF(t *testing.T) {
	c, r := hera()
	for _, k := range core.Kinds() {
		plan, err := Optimal(k, c, r)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExactExpectedTime(plan.Pattern, c, r)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := secondOrderExpectedTime(plan.Pattern, c, r)
		if err != nil {
			t.Fatal(err)
		}
		// The truncation drops O(√λ) terms; at Hera scale the relative
		// gap must be well below 1%.
		if math.Abs(exact-approx)/exact > 0.01 {
			t.Errorf("%v: exact %v vs second-order %v", k, exact, approx)
		}
	}
}

func TestSecondOrderMatchesProp2Form(t *testing.T) {
	// For PDM with equal segments, Prop 2 gives
	// E = W + n(V*+CM) + CD + (λs/n + λf/2)W².
	c, r := hera()
	n := 4
	w := 20000.0
	p, err := core.Layout(core.PDM, w, n, 1, c.Recall)
	if err != nil {
		t.Fatal(err)
	}
	got, err := secondOrderExpectedTime(p, c, r)
	if err != nil {
		t.Fatal(err)
	}
	want := w + float64(n)*(c.GuarVer+c.MemCkpt) + c.DiskCkpt +
		(r.Silent/float64(n)+r.FailStop/2)*w*w
	if !xmath.Close(got, want, 1e-12) {
		t.Errorf("Prop2: got %v, want %v", got, want)
	}
}

func TestSecondOrderMatchesProp3Form(t *testing.T) {
	// For PDV with the Theorem 3 chunks, Prop 3 gives
	// E = W + (m-1)V + V* + CM + CD + (λs f* + λf/2)W².
	c, r := hera()
	m := 5
	w := 9000.0
	p, err := core.Layout(core.PDV, w, 1, m, c.Recall)
	if err != nil {
		t.Fatal(err)
	}
	got, err := secondOrderExpectedTime(p, c, r)
	if err != nil {
		t.Fatal(err)
	}
	want := w + float64(m-1)*c.PartVer + c.GuarVer + c.MemCkpt + c.DiskCkpt +
		(r.Silent*core.Fstar(m, c.Recall)+r.FailStop/2)*w*w
	if !xmath.Close(got, want, 1e-9) {
		t.Errorf("Prop3: got %v, want %v", got, want)
	}
}

func TestProp1ExpectedTimeExpansion(t *testing.T) {
	c, r := hera()
	w := 9265.9
	// Prop 1 keeps linear recovery terms; it must sit between the bare
	// second-order form and the exact value, and within 0.1% of exact.
	exactP, _ := core.Layout(core.PD, w, 1, 1, c.Recall)
	exact, err := ExactExpectedTime(exactP, c, r)
	if err != nil {
		t.Fatal(err)
	}
	approx := prop1ExpectedTime(w, c, r)
	if math.Abs(exact-approx)/exact > 1e-3 {
		t.Errorf("Prop1 %v vs exact %v", approx, exact)
	}
}

func TestExactPDMVReducesToStarWhenRecallOne(t *testing.T) {
	// With r = 1 and V = V*, the partial-interior pattern behaves
	// exactly like the guaranteed-interior one.
	c, r := hera()
	c.Recall = 1
	c.PartVer = c.GuarVer
	pPart, err := core.Layout(core.PDMV, 20000, 3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	pStar, err := core.Layout(core.PDMVStar, 20000, 3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ExactExpectedTime(pPart, c, r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExactExpectedTime(pStar, c, r)
	if err != nil {
		t.Fatal(err)
	}
	if !xmath.Close(a, b, 1e-12) {
		t.Errorf("r=1 reduction: %v vs %v", a, b)
	}
}

func TestExactRejectsInvalid(t *testing.T) {
	c, r := hera()
	if _, err := ExactExpectedTime(core.Pattern{}, c, r); err == nil {
		t.Error("invalid pattern should fail")
	}
	p, _ := core.Layout(core.PD, 100, 1, 1, 1)
	bad := c
	bad.Recall = -1
	if _, err := ExactExpectedTime(p, bad, r); err == nil {
		t.Error("invalid costs should fail")
	}
	if _, err := ExactExpectedTime(p, c, core.Rates{FailStop: math.NaN()}); err == nil {
		t.Error("invalid rates should fail")
	}
}

func TestExactOverheadNearPredictedAtOptimum(t *testing.T) {
	// At the Table-1 optimum the first-order overhead and the exact
	// overhead agree closely on Hera (the paper reports <1% absolute).
	c, r := hera()
	for _, k := range core.Kinds() {
		plan, err := Optimal(k, c, r)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExactExpectedTime(plan.Pattern, c, r)
		if err != nil {
			t.Fatal(err)
		}
		hExact := exact/plan.W - 1
		if math.Abs(hExact-plan.Overhead) > 0.01 {
			t.Errorf("%v: exact overhead %v vs predicted %v", k, hExact, plan.Overhead)
		}
		if hExact < plan.Overhead-1e-9 {
			// First-order prediction is optimistic (paper §6.2.2).
			t.Errorf("%v: prediction %v above exact %v", k, plan.Overhead, hExact)
		}
	}
}

func TestExpectedOpCosts(t *testing.T) {
	c, _ := hera()
	// Zero rate: expected costs equal base costs.
	oc := expectedOpCosts(c, 0, 1e4)
	if oc.DiskRec != c.DiskRec || oc.MemRec != c.MemRec ||
		oc.DiskCkpt != c.DiskCkpt || oc.MemCkpt != c.MemCkpt {
		t.Errorf("zero-rate op costs changed: %+v", oc)
	}
	// Realistic rate: E(op) = op + O(λ), i.e. small positive inflation.
	lf := 9.46e-7
	oc = expectedOpCosts(c, lf, 1e4)
	if oc.DiskRec <= c.DiskRec || oc.DiskRec > c.DiskRec*1.01 {
		t.Errorf("E(RD) = %v, want slightly above %v", oc.DiskRec, c.DiskRec)
	}
	if oc.MemRec <= c.MemRec || oc.MemRec > c.MemRec+1 {
		t.Errorf("E(RM) = %v, want slightly above %v", oc.MemRec, c.MemRec)
	}
	if oc.DiskCkpt <= c.DiskCkpt || oc.MemCkpt <= c.MemCkpt {
		t.Error("expected checkpoint costs should exceed base costs")
	}
	// Higher failure rate inflates more.
	oc10 := expectedOpCosts(c, lf*10, 1e4)
	if oc10.DiskCkpt <= oc.DiskCkpt {
		t.Error("op costs should grow with the fail-stop rate")
	}
}

func TestPlanString(t *testing.T) {
	c, r := hera()
	plan, err := Optimal(core.PDMV, c, r)
	if err != nil {
		t.Fatal(err)
	}
	if plan.String() == "" {
		t.Error("empty String")
	}
}

func TestRationalNMProperty(t *testing.T) {
	// For any valid costs/rates, rational optima are >= 1 and finite
	// unless λf = 0 (where n̄* legitimately diverges).
	f := func(cd, cm, vs, v, rRaw, lfRaw, lsRaw float64) bool {
		c := core.Costs{
			DiskCkpt: math.Abs(math.Mod(cd, 1e4)) + 1,
			MemCkpt:  math.Abs(math.Mod(cm, 1e3)) + 1,
			GuarVer:  math.Abs(math.Mod(vs, 1e3)) + 1,
			PartVer:  math.Abs(math.Mod(v, 10)) + 0.01,
			Recall:   math.Mod(math.Abs(rRaw), 0.98) + 0.01,
		}
		c.DiskRec, c.MemRec = c.DiskCkpt, c.MemCkpt
		r := core.Rates{
			FailStop: math.Abs(math.Mod(lfRaw, 1e-4)) + 1e-9,
			Silent:   math.Abs(math.Mod(lsRaw, 1e-4)) + 1e-9,
		}
		for _, k := range core.Kinds() {
			n, m := RationalNM(k, c, r)
			if math.IsNaN(n) || math.IsNaN(m) || n < 1 || m < 1 {
				return false
			}
			if math.IsInf(n, 0) || math.IsInf(m, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOptimalPropertyIntegerNeighbourhoodIsOptimal(t *testing.T) {
	// The chosen (n*, m*) must beat all integer points in a window
	// around it, confirming the convexity-based selection.
	c, r := hera()
	for _, k := range core.Kinds() {
		plan, err := Optimal(k, c, r)
		if err != nil {
			t.Fatal(err)
		}
		best := plan.Overhead
		for dn := -2; dn <= 2; dn++ {
			for dm := -2; dm <= 2; dm++ {
				n, m := plan.N+dn, plan.M+dm
				if n < 1 || m < 1 {
					continue
				}
				if !k.MultiSegment() && n != 1 {
					continue
				}
				if !k.MultiChunk() && m != 1 {
					continue
				}
				h := 2 * math.Sqrt(product(k, c, r, n, m))
				if h < best-1e-12 {
					t.Errorf("%v: (n=%d,m=%d) gives %v < plan %v", k, n, m, h, best)
				}
			}
		}
	}
}
