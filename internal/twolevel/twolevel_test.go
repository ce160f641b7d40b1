package twolevel

import (
	"fmt"
	"math"
	"testing"

	"respat/internal/faults"
	"respat/internal/stats"
	"respat/internal/xmath"
)

// SimResult aggregates the Monte-Carlo validation.
type SimResult struct {
	Time       stats.Sample // per-run total
	LocalRecs  int64
	GlobalRecs int64
}

// Simulate runs the two-level protocol: patterns instances per run,
// runs repetitions, with exponential arrivals classified local/global
// by an independent Bernoulli(q). It validates ExpectedTime.
func Simulate(p Params, w float64, n, patterns, runs int, seed uint64) (SimResult, error) {
	if err := p.Validate(); err != nil {
		return SimResult{}, err
	}
	if w <= 0 || n <= 0 || patterns <= 0 || runs <= 0 {
		return SimResult{}, fmt.Errorf("twolevel: W=%v n=%d patterns=%d runs=%d", w, n, patterns, runs)
	}
	u := w / float64(n)
	var out SimResult
	for run := 0; run < runs; run++ {
		s1, s2 := faults.SplitSeed(seed, uint64(run)*2)
		src, err := faults.NewExponential(p.Lambda, s1, s2)
		if err != nil {
			return SimResult{}, err
		}
		b1, b2 := faults.SplitSeed(seed, uint64(run)*2+1)
		coin := faults.NewBernoulli(b1, b2)
		var now, exposure float64
		next := src.Next(0)
		for pat := 0; pat < patterns; pat++ {
			i := 0
			for i < n {
				d := u + p.LocalCkpt
				if next-exposure <= d {
					// Error mid-interval.
					dt := next - exposure
					now += dt
					exposure = next
					next = src.Next(exposure)
					if coin.Hit(p.LocalShare) {
						now += p.LocalRec
						out.LocalRecs++
						// Retry interval i.
					} else {
						now += p.DiskRec
						out.GlobalRecs++
						i = 0 // replay the whole pattern
					}
					continue
				}
				exposure += d
				now += d
				i++
			}
			now += p.DiskCkpt
		}
		out.Time.Add(now)
	}
	return out, nil
}

// TestCompareGain: with a large local share and a cheap local level
// the two-level protocol strictly beats the rate-matched disk-only
// baseline, and the baseline matches the protocol's own n=1,
// share-0 degeneration.
func TestCompareGain(t *testing.T) {
	p := Params{
		Lambda: 9.46e-6, LocalShare: 0.8,
		LocalCkpt: 15.4, DiskCkpt: 300, LocalRec: 15.4, DiskRec: 300,
	}
	cmp, err := Compare(p)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.TwoLevel.Overhead >= cmp.SingleLevel.Overhead {
		t.Errorf("two-level %.4f not below disk-only %.4f", cmp.TwoLevel.Overhead, cmp.SingleLevel.Overhead)
	}
	if cmp.Gain <= 0 || cmp.Gain >= 1 {
		t.Errorf("gain %v outside (0,1)", cmp.Gain)
	}
	// The baseline overhead is the exact n=1 disk-only evaluation at
	// its own optimum: re-evaluating at W* must reproduce it.
	base := Params{Lambda: p.Lambda, DiskCkpt: p.DiskCkpt, DiskRec: p.DiskRec}
	e, err := ExpectedTime(base, cmp.SingleLevel.W, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h := e/cmp.SingleLevel.W - 1; h != cmp.SingleLevel.Overhead {
		t.Errorf("baseline overhead %v not reproduced by ExpectedTime (%v)", cmp.SingleLevel.Overhead, h)
	}
	if cmp.String() == "" {
		t.Error("empty String")
	}
	if _, err := Compare(Params{Lambda: 0, DiskCkpt: 300}); err == nil {
		t.Error("zero-rate comparison should fail")
	}
}

func params() Params {
	return Params{
		Lambda:     1e-4,
		LocalShare: 0.8,
		LocalCkpt:  10,
		DiskCkpt:   120,
		LocalRec:   10,
		DiskRec:    120,
	}
}

func TestValidate(t *testing.T) {
	if err := params().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := params()
	bad.LocalShare = 1.5
	if bad.Validate() == nil {
		t.Error("q > 1 should fail")
	}
	bad = params()
	bad.Lambda = math.NaN()
	if bad.Validate() == nil {
		t.Error("NaN lambda should fail")
	}
	bad = params()
	bad.DiskCkpt = -1
	if bad.Validate() == nil {
		t.Error("negative cost should fail")
	}
}

func TestExpectedTimeErrorFree(t *testing.T) {
	p := params()
	p.Lambda = 0
	e, err := ExpectedTime(p, 3600, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := 3600 + 4*10 + 120.0
	if !xmath.Close(e, want, 1e-12) {
		t.Errorf("E = %v, want %v", e, want)
	}
}

func TestExpectedTimeValidation(t *testing.T) {
	p := params()
	if _, err := ExpectedTime(p, 0, 4); err == nil {
		t.Error("W=0 should fail")
	}
	if _, err := ExpectedTime(p, 100, 0); err == nil {
		t.Error("n=0 should fail")
	}
	bad := p
	bad.LocalShare = -1
	if _, err := ExpectedTime(bad, 100, 1); err == nil {
		t.Error("bad params should fail")
	}
}

func TestExpectedTimeAllGlobalReducesToSingleLevel(t *testing.T) {
	// With q = 0 and n = 1 the protocol is plain single-level
	// checkpointing; the renewal solves to
	// E = [(1-p)(W+CL) + p(lost+RD)]/(1-p) + CD.
	p := params()
	p.LocalShare = 0
	w := 5000.0
	e, err := ExpectedTime(p, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	prob := 1 - math.Exp(-p.Lambda*(w/1))
	lost := 1/p.Lambda - w/(math.Exp(p.Lambda*w)-1)
	want := ((1-prob)*(w+p.LocalCkpt)+prob*(lost+p.DiskRec))/(1-prob) + p.DiskCkpt
	if !xmath.Close(e, want, 1e-9) {
		t.Errorf("E = %v, want %v", e, want)
	}
}

func TestExpectedTimeMonotoneInRate(t *testing.T) {
	p := params()
	prev := 0.0
	for _, l := range []float64{0, 1e-5, 1e-4, 1e-3} {
		p.Lambda = l
		e, err := ExpectedTime(p, 3600, 4)
		if err != nil {
			t.Fatal(err)
		}
		if e <= prev {
			t.Errorf("E not increasing at lambda %v", l)
		}
		prev = e
	}
}

func TestOptimizeBasic(t *testing.T) {
	plan, err := Optimize(params())
	if err != nil {
		t.Fatal(err)
	}
	if plan.W <= 0 || plan.N < 1 || plan.Overhead <= 0 {
		t.Fatalf("implausible plan: %+v", plan)
	}
	// Local checkpoints must pay off here (cheap CL, mostly local
	// errors): the two-level optimum beats the single-level one.
	single, _ := xmath.MinimizeGolden(func(w float64) float64 {
		e, err := ExpectedTime(params(), w, 1)
		if err != nil {
			return math.Inf(1)
		}
		return e/w - 1
	}, 100, 1e6, 1e-10)
	_ = single
	eSingle, err := ExpectedTime(params(), single, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(plan.Overhead < eSingle/single-1) {
		t.Errorf("two-level %v should beat single-level %v", plan.Overhead, eSingle/single-1)
	}
	if plan.N < 2 {
		t.Errorf("expected several local intervals, got %d", plan.N)
	}
	if plan.String() == "" {
		t.Error("empty String")
	}
}

func TestOptimizeLocalShareZeroPrefersSingleLevel(t *testing.T) {
	// With no local errors, extra local checkpoints are pure overhead.
	p := params()
	p.LocalShare = 0
	plan, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.N != 1 {
		t.Errorf("n = %d, want 1 when all errors are global", plan.N)
	}
}

func TestOptimizeDegenerate(t *testing.T) {
	p := params()
	p.Lambda = 0
	if _, err := Optimize(p); err == nil {
		t.Error("zero rate should fail")
	}
}

func TestOptimizeIsLocalMinimum(t *testing.T) {
	p := params()
	plan, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	for dn := -2; dn <= 2; dn++ {
		n := plan.N + dn
		if n < 1 {
			continue
		}
		e, err := ExpectedTime(p, plan.W, n)
		if err != nil {
			t.Fatal(err)
		}
		if e/plan.W-1 < plan.Overhead-1e-9 {
			t.Errorf("n=%d beats the optimised n=%d", n, plan.N)
		}
	}
}

func TestSimulateMatchesExpectedTime(t *testing.T) {
	p := params()
	plan, err := Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExpectedTime(p, plan.W, plan.N)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(p, plan.W, plan.N, 20, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	perPattern := res.Time.Mean() / 20
	tol := 4*res.Time.CI95()/20 + 0.003*want
	if math.Abs(perPattern-want) > tol {
		t.Errorf("simulated %v vs evaluator %v (tol %v)", perPattern, want, tol)
	}
	if res.LocalRecs == 0 || res.GlobalRecs == 0 {
		t.Errorf("expected both recovery kinds: %+v", res)
	}
	// Local/global split tracks q = 0.8.
	frac := float64(res.LocalRecs) / float64(res.LocalRecs+res.GlobalRecs)
	if math.Abs(frac-0.8) > 0.05 {
		t.Errorf("local share = %v, want ~0.8", frac)
	}
}

func TestSimulateValidation(t *testing.T) {
	p := params()
	if _, err := Simulate(p, 0, 1, 1, 1, 1); err == nil {
		t.Error("W=0 should fail")
	}
	if _, err := Simulate(p, 100, 1, 0, 1, 1); err == nil {
		t.Error("patterns=0 should fail")
	}
	bad := p
	bad.Lambda = -1
	if _, err := Simulate(bad, 100, 1, 1, 1, 1); err == nil {
		t.Error("bad params should fail")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	p := params()
	a, err := Simulate(p, 2000, 3, 5, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(p, 2000, 3, 5, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time.Mean() != b.Time.Mean() || a.LocalRecs != b.LocalRecs || a.GlobalRecs != b.GlobalRecs {
		t.Error("simulation not deterministic by seed")
	}
}
