package xmath

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// sum returns the Kahan-Babuška (Neumaier) compensated sum of xs, the
// batch oracle for the streaming Accumulator.
func sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		t := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			comp += (sum - t) + x
		} else {
			comp += (x - t) + sum
		}
		sum = t
	}
	return sum + comp
}

func TestCloseBasics(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 1e-12, true},
		{1, 1 + 1e-10, 1e-9, true},
		{1, 1.1, 1e-3, false},
		{0, 1e-12, 1e-9, true},
		{0, 1e-3, 1e-9, false},
		{1e12, 1e12 * (1 + 1e-10), 1e-9, true},
		{-5, -5, 0, true},
	}
	for _, c := range cases {
		if got := Close(c.a, c.b, c.tol); got != c.want {
			t.Errorf("Close(%v,%v,%v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

func TestSumCompensation(t *testing.T) {
	// 1 + 1e100 - 1e100 + 1 loses a term with naive summation.
	xs := []float64{1, 1e100, 1, -1e100}
	if got := sum(xs); got != 2 {
		t.Errorf("Sum = %v, want 2", got)
	}
}

func TestSumMatchesAccumulator(t *testing.T) {
	f := func(xs []float64) bool {
		var acc Accumulator
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			acc.Add(x)
		}
		s := sum(xs)
		return (math.IsNaN(s) && math.IsNaN(acc.Value())) || Close(s, acc.Value(), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorReset(t *testing.T) {
	var acc Accumulator
	acc.Add(3)
	acc.Add(4)
	acc.Reset()
	if acc.Value() != 0 {
		t.Fatalf("Value after Reset = %v, want 0", acc.Value())
	}
	acc.Add(1.5)
	if acc.Value() != 1.5 {
		t.Fatalf("Value = %v, want 1.5", acc.Value())
	}
}

func TestMinimizeGoldenQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 3.25) * (x - 3.25) }
	x, fx := MinimizeGolden(f, 0, 10, 1e-12)
	if !Close(x, 3.25, 1e-6) {
		t.Errorf("argmin = %v, want 3.25", x)
	}
	if fx > 1e-10 {
		t.Errorf("min value = %v, want ~0", fx)
	}
}

func TestMinimizeGoldenReversedBounds(t *testing.T) {
	f := func(x float64) float64 { return math.Cosh(x - 1) }
	x, _ := MinimizeGolden(f, 5, -5, 1e-12)
	if !Close(x, 1, 1e-6) {
		t.Errorf("argmin = %v, want 1", x)
	}
}

func TestMinimizeGoldenRandomQuadratics(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 50; i++ {
		c := rng.Float64()*20 - 10
		f := func(x float64) float64 { return 2*(x-c)*(x-c) + 1 }
		x, fx := MinimizeGolden(f, -15, 15, 1e-12)
		if !Close(x, c, 1e-5) {
			t.Fatalf("argmin = %v, want %v", x, c)
		}
		if !Close(fx, 1, 1e-9) {
			t.Fatalf("min = %v, want 1", fx)
		}
	}
}

func TestMinimizeConvexInt(t *testing.T) {
	f := func(k int) float64 { d := float64(k) - 17.3; return d * d }
	k, fk := MinimizeConvexInt(f, 1, 1000)
	if k != 17 {
		t.Errorf("argmin = %d, want 17", k)
	}
	if !Close(fk, 0.09, 1e-12) {
		t.Errorf("min = %v, want 0.09", fk)
	}
}

func TestMinimizeConvexIntTinyRange(t *testing.T) {
	f := func(k int) float64 { return float64(k) }
	k, _ := MinimizeConvexInt(f, 5, 5)
	if k != 5 {
		t.Errorf("argmin = %d, want 5", k)
	}
	k, _ = MinimizeConvexInt(f, 7, 3) // reversed bounds
	if k != 3 {
		t.Errorf("argmin = %d, want 3", k)
	}
}

// convexCases are integer functions on which MinimizeConvexIntFrom
// must agree with MinimizeConvexInt from every start: random strictly
// convex quadratics, and plateau-bottomed piecewise-linear functions
// whose ties must resolve to the smallest argmin.
func convexCases(rng *rand.Rand) []func(int) float64 {
	var fs []func(int) float64
	for i := 0; i < 40; i++ {
		c, a, b := rng.Float64()*140-20, rng.Float64()*5+0.01, rng.Float64()*10-5
		fs = append(fs, func(k int) float64 { d := float64(k) - c; return a*d*d + b })
		lo, w := rng.IntN(120)-10, rng.IntN(8)
		slopeL, slopeR := rng.Float64()+0.1, rng.Float64()+0.1
		fs = append(fs, func(k int) float64 {
			switch {
			case k < lo:
				return slopeL * float64(lo-k)
			case k > lo+w:
				return slopeR * float64(k-lo-w)
			}
			return 0
		})
	}
	return fs
}

func TestMinimizeConvexIntFromMatchesTernary(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	const lo, hi = 1, 100
	for i, f := range convexCases(rng) {
		want, fwant := MinimizeConvexInt(f, lo, hi)
		for start := lo - 5; start <= hi+5; start++ {
			calls := 0
			counted := func(k int) float64 { calls++; return f(k) }
			got, fgot := MinimizeConvexIntFrom(counted, lo, hi, start)
			if got != want || fgot != fwant {
				t.Fatalf("case %d start %d: (%d, %v), ternary (%d, %v)", i, start, got, fgot, want, fwant)
			}
			s := min(max(start, lo), hi)
			if d := max(got-s, s-got); calls > d+3 {
				t.Fatalf("case %d start %d: %d evaluations for a distance of %d", i, start, calls, d)
			}
		}
	}
}

func TestMinimizeConvexIntFromEdges(t *testing.T) {
	f := func(k int) float64 { d := float64(k) - 17.3; return d * d }
	if k, _ := MinimizeConvexIntFrom(f, 5, 5, 40); k != 5 {
		t.Errorf("lo == hi: argmin = %d, want 5", k)
	}
	if k, _ := MinimizeConvexIntFrom(f, 30, 1, 2); k != 17 {
		t.Errorf("reversed bounds: argmin = %d, want 17", k)
	}
	if k, _ := MinimizeConvexIntFrom(f, 1, 1000, -50); k != 17 {
		t.Errorf("start below lo: argmin = %d, want 17", k)
	}
	if k, _ := MinimizeConvexIntFrom(f, 1, 10, 5000); k != 10 {
		t.Errorf("start above hi, argmin at the bound: %d, want 10", k)
	}
}

// TestMinimizeConvexIntFromNonFinite: a descent that lands on a
// non-finite value falls back to the full ternary search, so diverging
// regimes get exactly MinimizeConvexInt's answer.
func TestMinimizeConvexIntFromNonFinite(t *testing.T) {
	cases := []struct {
		name   string
		f      func(int) float64
		starts []int // starts whose descent lands on a non-finite value
	}{
		{"inf tail", func(k int) float64 {
			if k > 40 {
				return math.Inf(1)
			}
			d := float64(k) - 12
			return d * d
		}, []int{41, 50, 64, 99}},
		{"nan tail", func(k int) float64 {
			if k > 40 {
				return math.NaN()
			}
			return float64(k)
		}, []int{41, 64}},
		{"all inf", func(int) float64 { return math.Inf(1) }, []int{1, 30, 64}},
		{"-inf dip", func(k int) float64 {
			if k == 3 {
				return math.Inf(-1)
			}
			return float64(k)
		}, []int{3, 4, 20}},
		// Two -Inf dips: a descent from above lands on the upper one,
		// which the ternary search does not return.
		{"-inf dips", func(k int) float64 {
			if k == 3 || k == 50 {
				return math.Inf(-1)
			}
			return math.Abs(float64(k) - 30)
		}, []int{50, 51, 64}},
	}
	for _, c := range cases {
		ternaryCalls := 0
		want, fwant := MinimizeConvexInt(func(k int) float64 { ternaryCalls++; return c.f(k) }, 1, 64)
		for _, start := range c.starts {
			calls := 0
			got, fgot := MinimizeConvexIntFrom(func(k int) float64 { calls++; return c.f(k) }, 1, 64, start)
			if got != want || math.Float64bits(fgot) != math.Float64bits(fwant) {
				t.Errorf("%s start %d: (%d, %v), ternary (%d, %v)", c.name, start, got, fgot, want, fwant)
			}
			// A non-finite start falls back at once, without walking.
			if !isFinite(c.f(min(start, 64))) && calls > ternaryCalls+1 {
				t.Errorf("%s start %d: %d evaluations, ternary search alone takes %d", c.name, start, calls, ternaryCalls)
			}
		}
	}
}

func TestIntNeighborhood(t *testing.T) {
	cases := []struct {
		x    float64
		want []int
	}{
		{2.3, []int{2, 3}},
		{0.4, []int{1}},
		{-3, []int{1}},
		{5, []int{5}},
		{1.0, []int{1}},
	}
	for _, c := range cases {
		got := IntNeighborhood(c.x)
		if len(got) != len(c.want) {
			t.Errorf("IntNeighborhood(%v) = %v, want %v", c.x, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("IntNeighborhood(%v) = %v, want %v", c.x, got, c.want)
			}
		}
	}
}

func TestBrentSimpleRoot(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	x, err := Brent(f, 0, 2, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if !Close(x, math.Sqrt2, 1e-10) {
		t.Errorf("root = %v, want sqrt(2)", x)
	}
}

func TestBrentEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x - 1 }
	if x, err := Brent(f, 1, 5, 1e-12); err != nil || x != 1 {
		t.Errorf("root = (%v,%v), want (1,nil)", x, err)
	}
	if x, err := Brent(f, -3, 1, 1e-12); err != nil || x != 1 {
		t.Errorf("root = (%v,%v), want (1,nil)", x, err)
	}
}

func TestBrentNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Brent(f, -1, 1, 1e-12); err != ErrNoBracket {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBrentTranscendental(t *testing.T) {
	// Young/Daly-like fixed point: find W with W^2 = K (via exp form).
	f := func(w float64) float64 { return math.Exp(w) - 3 }
	x, err := Brent(f, 0, 5, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	if !Close(x, math.Log(3), 1e-10) {
		t.Errorf("root = %v, want ln 3", x)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}

func TestSqrtRatio(t *testing.T) {
	if got := SqrtRatio(9, 4); !Close(got, 1.5, 1e-12) {
		t.Errorf("SqrtRatio(9,4) = %v, want 1.5", got)
	}
	if !math.IsInf(SqrtRatio(1, 0), 1) {
		t.Error("SqrtRatio(1,0) should be +Inf")
	}
	if !math.IsNaN(SqrtRatio(-1, 1)) {
		t.Error("SqrtRatio(-1,1) should be NaN")
	}
}

func TestGoldenSectionAgainstBruteForce(t *testing.T) {
	// The pattern-overhead shape a/x + b*x has argmin sqrt(a/b); check
	// golden section recovers it across magnitudes.
	for _, ab := range [][2]float64{{330.8, 3.85e-6}, {15, 1e-3}, {2500, 1e-7}} {
		a, b := ab[0], ab[1]
		f := func(x float64) float64 { return a/x + b*x }
		want := math.Sqrt(a / b)
		x, _ := MinimizeGolden(f, want/100, want*100, 1e-12)
		if !Close(x, want, 1e-5) {
			t.Errorf("argmin(a=%v,b=%v) = %v, want %v", a, b, x, want)
		}
	}
}
