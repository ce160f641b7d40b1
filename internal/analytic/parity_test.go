package analytic

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"respat/internal/core"
	"respat/internal/platform"
	"respat/internal/xmath"
)

// optimalTernary is Optimal as it ran before its robustness net's m
// search became a descent: ternary searches over [1, MaxSplit] in both
// dimensions. Optimal must return the same plan bits.
func optimalTernary(k core.Kind, c core.Costs, r core.Rates) (Plan, error) {
	if r.Total() == 0 {
		return Plan{}, ErrDegenerate
	}
	nbar, mbar := RationalNM(k, c, r)
	nCands := []int{1}
	if k.MultiSegment() {
		nCands = intCandidates(nbar)
	}
	mCands := []int{1}
	if k.MultiChunk() {
		mCands = intCandidates(mbar)
	}
	bestN, bestM := 1, 1
	bestF := math.Inf(1)
	for _, n := range nCands {
		for _, m := range mCands {
			if f := product(k, c, r, n, m); f < bestF {
				bestN, bestM, bestF = n, m, f
			}
		}
	}
	nGrid, mGrid := 1, 1
	if k.MultiSegment() && k.MultiChunk() {
		mAt := func(n int) (int, float64) {
			return xmath.MinimizeConvexInt(func(m int) float64 { return product(k, c, r, n, m) }, 1, MaxSplit)
		}
		n2, _ := xmath.MinimizeConvexInt(func(n int) float64 { _, f := mAt(n); return f }, 1, MaxSplit)
		m2, _ := mAt(n2)
		nGrid, mGrid = n2, m2
	} else if k.MultiSegment() {
		nGrid, _ = xmath.MinimizeConvexInt(func(n int) float64 { return product(k, c, r, n, 1) }, 1, MaxSplit)
	} else if k.MultiChunk() {
		mGrid, _ = xmath.MinimizeConvexInt(func(m int) float64 { return product(k, c, r, 1, m) }, 1, MaxSplit)
	}
	if f := product(k, c, r, nGrid, mGrid); f < bestF {
		bestN, bestM, bestF = nGrid, mGrid, f
	}
	oef, orw := EF(k, c, bestN, bestM), RW(k, c, r, bestN, bestM)
	w := xmath.SqrtRatio(oef, orw)
	if math.IsInf(w, 1) || w <= 0 || math.IsNaN(w) {
		return Plan{}, fmt.Errorf("analytic: no finite optimal period for %v (oef=%v, orw=%v)", k, oef, orw)
	}
	return Plan{Kind: k, N: bestN, M: bestM, W: w, Overhead: 2 * math.Sqrt(bestF)}, nil
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

// TestOptimalTernaryParity asserts Optimal equals optimalTernary — n,
// m and the W/H bits — for all six families on a seeded random sample
// at ×2/×10/×100 scatter.
func TestOptimalTernaryParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 5))
	for _, s := range []float64{2, 10, 100} {
		for i := 0; i < 200; i++ {
			c, r := scattered(rng, s)
			for _, k := range core.Kinds() {
				got, err := Optimal(k, c, r)
				want, refErr := optimalTernary(k, c, r)
				label := fmt.Sprintf("x%g #%d %v %+v %+v", s, i, k, c, r)
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
