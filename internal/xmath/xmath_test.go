package xmath

import (
	"fmt"
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

// goldenOracle is MinimizeGolden as it was before it tested its
// stopping rule ahead of its interior probes: it always probes both
// interior points first, so a bracket that already meets the tolerance
// costs three probes where the midpoint alone is returned.
func goldenOracle(f func(float64) float64, a, b, tol float64) (x, fx float64) {
	if b < a {
		a, b = b, a
	}
	if tol <= 0 {
		tol = 1e-10
	}
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > tol*(math.Abs(a)+math.Abs(b)+1) {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	x = (a + b) / 2
	return x, f(x)
}

// goldenCase is one MinimizeGolden input.
type goldenCase struct {
	name string
	f    func(float64) float64
	a, b float64
	tol  float64
	met  bool // the bracket already meets the tolerance
}

// goldenCases returns seeded inputs on both sides of the stopping rule:
// quadratics over random brackets at tolerances from the default to
// wider than the bracket, the exact-overhead shape (e^{λ(W+C)} − 1)/(λW)
// − 1 over screenW's [W*/100, 100·W*] at its tolerance W*·1e-4 for W*
// from 10² to 10⁶ s (it stops at once from W* ≈ 10⁴ s on), NaN
// brackets, tolerances and values, and reversed bounds.
func goldenCases() []goldenCase {
	rng := rand.New(rand.NewPCG(24, 1))
	var cases []goldenCase
	add := func(name string, f func(float64) float64, a, b, tol float64) {
		lo, hi, rtol := math.Min(a, b), math.Max(a, b), tol
		if rtol <= 0 {
			rtol = 1e-10
		}
		met := !(hi-lo > rtol*(math.Abs(lo)+math.Abs(hi)+1))
		cases = append(cases, goldenCase{name, f, a, b, tol, met})
	}
	for i := 0; i < 400; i++ {
		k := math.Exp(rng.Float64()*4 - 2)
		c0 := rng.Float64()*200 - 100
		off := rng.Float64()*2 - 1
		f := func(x float64) float64 { return k*(x-c0)*(x-c0) + off }
		lo, hi := c0-math.Exp(rng.Float64()*8-4), c0+math.Exp(rng.Float64()*8-4)
		tol := []float64{0, -1, 1e-12, 1e-6, 1e-3, 0.1, 1, 10, 1e3}[i%9]
		name := fmt.Sprintf("%v(x-%v)²+%v", k, c0, off)
		add(name, f, lo, hi, tol)
		add(name+" reversed", f, hi, lo, tol)
	}
	for i := 0; i < 400; i++ {
		ws := math.Pow(10, 2+4*float64(i)/399)
		lw := math.Exp(rng.Float64()*math.Log(50)) / 100 // λ·W* in [0.01, 0.5]
		lambda := lw / ws
		ckpt := ws * lw / 2 // W* = √(2C/λ)
		f := func(w float64) float64 { return math.Expm1(lambda*(w+ckpt))/(lambda*w) - 1 }
		add(fmt.Sprintf("screen W*=%v λ=%v", ws, lambda), f, ws/100, ws*100, ws*1e-4)
	}
	nan := math.NaN()
	sq := func(x float64) float64 { return (x - 1) * (x - 1) }
	add("NaN low bound", sq, nan, 4, 1e-8)
	add("NaN high bound", sq, -4, nan, 1e-8)
	add("NaN tolerance", sq, -4, 4, nan)
	add("NaN values", func(float64) float64 { return nan }, -4, 4, 1e-8)
	add("NaN values, wide tolerance", func(float64) float64 { return nan }, -4, 4, 10)
	add("empty bracket", sq, 3, 3, 1e-8)
	return cases
}

// TestMinimizeGoldenOracleParity: MinimizeGolden returns the oracle's
// (x, f(x)) bits on every case, probes f once when the bracket already
// meets the tolerance, and otherwise probes it as often as the oracle.
func TestMinimizeGoldenOracleParity(t *testing.T) {
	var stopped, searched int
	for _, c := range goldenCases() {
		var got, want int
		x, fx := MinimizeGolden(func(x float64) float64 { got++; return c.f(x) }, c.a, c.b, c.tol)
		ox, ofx := goldenOracle(func(x float64) float64 { want++; return c.f(x) }, c.a, c.b, c.tol)
		label := fmt.Sprintf("%s on [%v, %v] at tol %v", c.name, c.a, c.b, c.tol)
		if math.Float64bits(x) != math.Float64bits(ox) || math.Float64bits(fx) != math.Float64bits(ofx) {
			t.Fatalf("%s: (%v, %v), oracle (%v, %v)", label, x, fx, ox, ofx)
		}
		if c.met {
			stopped++
			want = 1
		} else {
			searched++
		}
		if got != want {
			t.Fatalf("%s: %d probes, want %d", label, got, want)
		}
	}
	if stopped == 0 || searched == 0 {
		t.Fatalf("cases fall on one side of the stopping rule: %d stopped at once, %d searched", stopped, searched)
	}
	t.Logf("%d cases stopped at once, %d searched", stopped, searched)
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

// minimizeFromCase is one MinimizeFrom property input: f, its argmin
// on [lo, hi] and the distance within which the result must land (the
// search tolerance plus the float64 resolution of f's minimum).
type minimizeFromCase struct {
	name     string
	f        func(float64) float64
	lo, hi   float64
	argmin   float64
	tol      float64
	maxCalls int // 0: unchecked
}

// checkMinimizeFrom runs MinimizeFrom from x0 and asserts the
// properties every seed must keep: the result is no worse than the
// seed, lands within tolerance of the argmin, stays inside the range,
// repeats bit for bit and, where bounded, stays within the probe
// budget.
func checkMinimizeFrom(t *testing.T, c minimizeFromCase, x0 float64) {
	t.Helper()
	calls := 0
	x, fx := MinimizeFrom(func(x float64) float64 { calls++; return c.f(x) }, x0, c.lo, c.hi)
	label := fmt.Sprintf("%s on [%v, %v] from %v", c.name, c.lo, c.hi, x0)
	if f0 := c.f(Clamp(x0, c.lo, c.hi)); !(fx <= f0) && !math.IsNaN(f0) {
		t.Fatalf("%s: f(x)=%v above f(x0)=%v", label, fx, f0)
	}
	if x < c.lo || x > c.hi {
		t.Fatalf("%s: x=%v outside the range", label, x)
	}
	if math.Abs(x-c.argmin) > c.tol {
		t.Fatalf("%s: x=%v, argmin %v (tolerance %v)", label, x, c.argmin, c.tol)
	}
	if c.maxCalls > 0 && calls > c.maxCalls {
		t.Fatalf("%s: %d probes, budget %d", label, calls, c.maxCalls)
	}
	x2, fx2 := MinimizeFrom(c.f, x0, c.lo, c.hi)
	if math.Float64bits(x2) != math.Float64bits(x) || math.Float64bits(fx2) != math.Float64bits(fx) {
		t.Fatalf("%s: repeat gave (%v, %v), first (%v, %v)", label, x2, fx2, x, fx)
	}
}

// TestMinimizeFromQuadratics: random quadratics with the argmin
// anywhere in a random range, seeded at the argmin, near it, two
// decades of the seed's distance away, and at both ends.
func TestMinimizeFromQuadratics(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 1))
	for i := 0; i < 500; i++ {
		k := math.Exp(rng.Float64()*4 - 2)
		c0 := rng.Float64()*200 - 100
		lo, hi := c0-math.Exp(rng.Float64()*8), c0+math.Exp(rng.Float64()*8)
		c := minimizeFromCase{
			name:   fmt.Sprintf("%v(x-%v)²+1", k, c0),
			f:      func(x float64) float64 { return k*(x-c0)*(x-c0) + 1 },
			lo:     lo,
			hi:     hi,
			argmin: c0,
			tol:    1e-6 * math.Max(1, math.Abs(c0)),
		}
		near := 0.03 * math.Max(1, math.Abs(c0))
		for _, x0 := range []float64{c0, c0 + near, c0 - near, c0 + 100*near, c0 - 100*near, lo, hi} {
			checkMinimizeFrom(t, c, x0)
		}
	}
}

// TestMinimizeFromOverheadShape: the shape of the pattern overhead
// h(W) = a/W + b·W + c over the planners' range [W*/100, 100·W*],
// seeded where they seed it (the argmin, or near it) and two decades
// away; the seeded cases stay within the 40-probe budget.
func TestMinimizeFromOverheadShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 2))
	for i := 0; i < 500; i++ {
		a := math.Exp(rng.Float64()*14 - 2)
		b := math.Exp(-rng.Float64()*14 - 2)
		off := rng.Float64()
		ws := math.Sqrt(a / b)
		c := minimizeFromCase{
			name:     fmt.Sprintf("%v/W+%v·W+%v", a, b, off),
			f:        func(w float64) float64 { return a/w + b*w + off },
			lo:       ws / 100,
			hi:       ws * 100,
			argmin:   ws,
			tol:      1e-6 * ws,
			maxCalls: 40,
		}
		for _, s := range []float64{1, 1.03, 0.97, 1.2, 0.8, 1.6, 0.6, 100, 0.01} {
			checkMinimizeFrom(t, c, s*ws)
		}
	}
}

// TestMinimizeFromNonFinite: +Inf over part of the range (a diverging
// expected time beyond some W, or below some W), including at the seed
// itself, and NaN read as +Inf.
func TestMinimizeFromNonFinite(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 3))
	for i := 0; i < 300; i++ {
		a := math.Exp(rng.Float64()*8 + 2)
		b := math.Exp(-rng.Float64()*8 - 2)
		ws := math.Sqrt(a / b)
		cut := ws * math.Exp(rng.Float64()*math.Log(50)+0.2)
		bad := math.Inf(1)
		if i%2 == 1 {
			bad = math.NaN()
		}
		right := minimizeFromCase{
			name: fmt.Sprintf("%v/W+%v·W, %v beyond %v", a, b, bad, cut),
			f: func(w float64) float64 {
				if w > cut {
					return bad
				}
				return a/w + b*w
			},
			lo: ws / 100, hi: ws * 100, argmin: ws, tol: 1e-6 * ws,
		}
		leftCut := ws / math.Exp(rng.Float64()*math.Log(50)+0.2)
		left := right
		left.name = fmt.Sprintf("%v/W+%v·W, %v below %v", a, b, bad, leftCut)
		left.f = func(w float64) float64 {
			if w < leftCut {
				return bad
			}
			return a/w + b*w
		}
		for _, s := range []float64{1, 1.1, 0.9, 100, 0.01} {
			checkMinimizeFrom(t, right, s*ws)
			checkMinimizeFrom(t, left, s*ws)
		}
		// Seeds inside the non-finite region.
		checkMinimizeFrom(t, right, cut*1.01)
		checkMinimizeFrom(t, right, math.Sqrt(cut*ws*100))
		checkMinimizeFrom(t, left, leftCut*0.99)
		checkMinimizeFrom(t, left, math.Sqrt(leftCut*ws/100))
	}
	// A range with no finite value returns a non-finite value.
	if _, fx := MinimizeFrom(func(float64) float64 { return math.Inf(1) }, 3, 1, 10); !math.IsInf(fx, 1) {
		t.Errorf("all +Inf: fx = %v", fx)
	}
}

// TestMinimizeFromEdges: a minimum at either end of the range, a seed
// outside the range, reversed bounds and a zero seed.
func TestMinimizeFromEdges(t *testing.T) {
	rising := minimizeFromCase{name: "x", f: func(x float64) float64 { return x }, lo: 1, hi: 10, argmin: 1, tol: 1e-6}
	falling := minimizeFromCase{name: "-x", f: func(x float64) float64 { return -x }, lo: 1, hi: 10, argmin: 10, tol: 1e-5}
	for _, x0 := range []float64{1, 1.5, 5, 10, -3, 40} {
		checkMinimizeFrom(t, rising, x0)
		checkMinimizeFrom(t, falling, x0)
	}
	x, _ := MinimizeFrom(func(x float64) float64 { return (x - 2) * (x - 2) }, 0, 10, -10)
	if !Close(x, 2, 1e-6) {
		t.Errorf("reversed bounds, zero seed: x = %v, want 2", x)
	}
	// A NaN seed or bound must end the search, not hang it.
	nan := math.NaN()
	square := func(x float64) float64 { return x * x }
	for _, in := range [][3]float64{{nan, -1, 1}, {0.5, nan, 1}, {0.5, -1, nan}, {nan, nan, nan}} {
		MinimizeFrom(square, in[0], in[1], in[2])
	}
}
