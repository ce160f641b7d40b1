package optimize

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/platform"
	"respat/internal/xmath"
)

// exactTernary is the exact (n, m) search as it ran before its m search
// became a descent: nested ternary searches over [1, maxN] and
// [1, maxM]. exactFrom must return the same plan bits.
func exactTernary(ev *analytic.Evaluator, first analytic.Plan) (ExactPlan, error) {
	k := first.Kind
	maxN, maxM := 1, 1
	if k.MultiSegment() {
		maxN = min(3*first.N+4, analytic.MaxSplit)
	}
	if k.MultiChunk() {
		maxM = min(3*first.M+4, analytic.MaxSplit)
	}
	type eval struct {
		w, h float64
		err  error
	}
	memo := make(map[[2]int]eval)
	at := func(n, m int) eval {
		key := [2]int{n, m}
		if e, ok := memo[key]; ok {
			return e
		}
		w, h, err := optimizeW(ev, k, n, m)
		e := eval{w: w, h: h, err: err}
		memo[key] = e
		return e
	}
	bestM := func(n int) (int, eval) {
		m, _ := xmath.MinimizeConvexInt(func(m int) float64 {
			e := at(n, m)
			if e.err != nil {
				return math.Inf(1)
			}
			return e.h
		}, 1, maxM)
		return m, at(n, m)
	}
	n, _ := xmath.MinimizeConvexInt(func(n int) float64 {
		_, e := bestM(n)
		if e.err != nil {
			return math.Inf(1)
		}
		return e.h
	}, 1, maxN)
	m, best := bestM(n)
	if best.err != nil {
		return ExactPlan{}, best.err
	}
	return ExactPlan{Kind: k, N: n, M: m, W: best.w, Overhead: best.h}, nil
}

// scattered draws a random Table 2 platform whose two rates and six
// costs are each scaled by an independent log-uniform factor in
// [1/s, s].
func scattered(rng *rand.Rand, s float64) (core.Costs, core.Rates) {
	t2 := platform.Table2()
	pl := t2[rng.IntN(len(t2))]
	f := func() float64 { return math.Exp((2*rng.Float64() - 1) * math.Log(s)) }
	r := pl.Rates.Scale(f(), f())
	c := pl.Costs
	for _, v := range []*float64{&c.DiskCkpt, &c.MemCkpt, &c.DiskRec, &c.MemRec, &c.GuarVer, &c.PartVer} {
		*v *= f()
	}
	return c, r
}

// TestExactTernaryParity asserts Exact equals exactTernary — n, m and
// the W/H bits — for all six families on a seeded random sample at
// ×2/×10/×100 scatter.
func TestExactTernaryParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 6))
	for _, s := range []float64{2, 10, 100} {
		for i := 0; i < 6; i++ {
			c, r := scattered(rng, s)
			ev, err := analytic.NewEvaluator(c, r)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range core.Kinds() {
				label := fmt.Sprintf("x%g #%d %v %+v %+v", s, i, k, c, r)
				first, err := analytic.Optimal(k, c, r)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, err := Exact(k, c, r)
				want, refErr := exactTernary(ev, first)
				if (err != nil) != (refErr != nil) {
					t.Fatalf("%s: error %v, ternary error %v", label, err, refErr)
				}
				if err != nil {
					continue
				}
				if got.N != want.N || got.M != want.M ||
					math.Float64bits(got.W) != math.Float64bits(want.W) ||
					math.Float64bits(got.Overhead) != math.Float64bits(want.Overhead) {
					t.Fatalf("%s: n=%d m=%d W=%v H=%v, ternary n=%d m=%d W=%v H=%v",
						label, got.N, got.M, got.W, got.Overhead, want.N, want.M, want.W, want.Overhead)
				}
			}
		}
	}
}

// optimizeWGolden is the leaf W search as it ran before optimizeW was
// seeded at the first-order period: a golden-section search over
// [W*/100, 100·W*] to a 1e-10 relative tolerance (~60 probes), with
// the divergence fix — a probe whose expected time diverges reads as
// +Inf, and the leaf fails only when its minimum is not finite.
func optimizeWGolden(ev *analytic.Evaluator, k core.Kind, n, m int) (w, overhead float64, err error) {
	c, r := ev.Costs(), ev.Rates()
	if r.Total() == 0 {
		return 0, 0, analytic.ErrDegenerate
	}
	guess := xmath.SqrtRatio(analytic.EF(k, c, n, m), analytic.RW(k, c, r, n, m))
	if math.IsInf(guess, 1) || guess <= 0 {
		return 0, 0, fmt.Errorf("optimize: no finite period guess for %v", k)
	}
	var evalErr error
	h := func(w float64) float64 {
		h, err := ev.EvalLayoutOverhead(k, n, m, w)
		if err != nil {
			evalErr = err
			return math.Inf(1)
		}
		return h
	}
	w, overhead = xmath.MinimizeGolden(h, guess/100, guess*100, 1e-10)
	if math.IsInf(overhead, 0) || math.IsNaN(overhead) {
		if evalErr == nil {
			evalErr = fmt.Errorf("optimize: no finite overhead for %v n=%d m=%d", k, n, m)
		}
		return 0, 0, evalErr
	}
	return w, overhead, nil
}

// TestExactLeafOracleParity runs the exact (n, m) search over
// optimizeW and over the golden-section oracle leaf, for all six
// families on a seeded random sample at ×2/×10/×100 scatter. At ×2
// and ×10 the two plans must pick the same (n, m), with W within 1e-5
// relative and H no more than 1e-12 relative above the oracle's; at
// ×100, where wide leaves can be non-unimodal, a changed (n, m) must
// have a strictly lower H.
func TestExactLeafOracleParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 5))
	perScatter := map[float64]int{2: 30, 10: 30, 100: 10} // ×100 plans cost ~20 ms
	for _, s := range []float64{2, 10, 100} {
		for i := 0; i < perScatter[s]; i++ {
			c, r := scattered(rng, s)
			ev, err := analytic.NewEvaluator(c, r)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range core.Kinds() {
				label := fmt.Sprintf("x%g #%d %v %+v %+v", s, i, k, c, r)
				first, err := analytic.Optimal(k, c, r)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, err := exactSearch(context.Background(), ev, first, optimizeW)
				want, oracleErr := exactSearch(context.Background(), ev, first, optimizeWGolden)
				if (err != nil) != (oracleErr != nil) {
					t.Fatalf("%s: error %v, oracle error %v", label, err, oracleErr)
				}
				if err != nil {
					continue
				}
				if got.N != want.N || got.M != want.M {
					if s == 100 && got.Overhead < want.Overhead {
						continue
					}
					t.Fatalf("%s: n=%d m=%d H=%v, oracle n=%d m=%d H=%v",
						label, got.N, got.M, got.Overhead, want.N, want.M, want.Overhead)
				}
				if math.Abs(got.W-want.W) > 1e-5*want.W || got.Overhead > want.Overhead*(1+1e-12) {
					t.Fatalf("%s: W=%v H=%v, oracle W=%v H=%v", label, got.W, got.Overhead, want.W, want.Overhead)
				}
			}
		}
	}
}
