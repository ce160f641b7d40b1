// Package xmath provides the small numerical substrate used throughout
// respat: compensated summation, scalar minimisation, convex integer
// search and root finding. All routines are dependency-free and
// deterministic, which keeps the analytic model and the simulator
// reproducible bit-for-bit across runs.
package xmath

import (
	"errors"
	"math"
)

// Eps is the default relative tolerance used by the comparison helpers.
const Eps = 1e-9

// ErrNoBracket is returned by Brent when the supplied interval does not
// bracket a sign change.
var ErrNoBracket = errors.New("xmath: interval does not bracket a root")

// Close reports whether a and b are equal within relative tolerance tol
// (absolute tolerance tol for numbers near zero).
func Close(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		return diff <= tol
	}
	return diff <= tol*scale
}

// Accumulator is a streaming Neumaier-compensated accumulator.
// The zero value is ready to use.
type Accumulator struct {
	sum  float64
	comp float64
}

// Add accumulates x.
func (a *Accumulator) Add(x float64) {
	t := a.sum + x
	if math.Abs(a.sum) >= math.Abs(x) {
		a.comp += (a.sum - t) + x
	} else {
		a.comp += (x - t) + a.sum
	}
	a.sum = t
}

// Value returns the compensated total.
func (a *Accumulator) Value() float64 { return a.sum + a.comp }

// Reset clears the accumulator.
func (a *Accumulator) Reset() { a.sum, a.comp = 0, 0 }

const invPhi = 0.6180339887498949 // (sqrt(5)-1)/2

// MinimizeGolden minimises the unimodal function f on [a, b] by
// golden-section search, stopping when the bracket is narrower than tol
// (relative to the bracket magnitude, with an absolute floor).
// It returns the abscissa and the value of the minimum: the bracket's
// midpoint, so a bracket that already meets the tolerance (or holds a
// NaN) costs f one probe.
func MinimizeGolden(f func(float64) float64, a, b, tol float64) (x, fx float64) {
	if b < a {
		a, b = b, a
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if !(b-a > tol*(math.Abs(a)+math.Abs(b)+1)) {
		x = (a + b) / 2
		return x, f(x)
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

// Constants of MinimizeFrom: the relative tolerance √ε of float64 (a
// smooth minimum is not resolvable in x below it, since f's change
// there is quadratic in the step), an absolute floor for a minimum at
// 0, the first bracketing step relative to the seed, the golden ratio
// that grows the bracket and 1/φ², the fraction of a golden-section
// step of Brent's fallback.
const (
	sqrtEps   = 1.4901161193847656e-08
	zeroFloor = 2.220446049250313e-19 // 1e-3·ε
	firstStep = 0.05
	phi       = 1.618033988749895
	cgold     = 0.3819660112501051 // 2 - phi
)

// MinimizeFrom minimises f on [lo, hi] from the seed x0 (clamped into
// the range): it steps downhill from x0, the first step 5% of |x0|
// and each next one golden-ratio longer, until a probe rises (or the
// walk reaches a bound), then runs Brent's parabolic-interpolation
// method inside that bracket to a relative tolerance of √ε. A seed
// near the minimum of a smooth f (e.g. a first-order optimum) makes it
// far cheaper than MinimizeGolden over a wide range: ~14 probes
// instead of ~60.
//
// It returns the best point it probed, so fx ≤ f(x0). NaN reads as
// +Inf, and +Inf as no better than any other value: while the seed's
// value is +Inf the walk widens both ways until one side turns finite.
// For unimodal f the result is the minimum; otherwise it is a local
// one. The probe sequence is a pure function of f's values, so results
// repeat bit for bit.
func MinimizeFrom(f func(float64) float64, x0, lo, hi float64) (x, fx float64) {
	if hi < lo {
		lo, hi = hi, lo
	}
	f = infNaN(f)
	x0 = Clamp(x0, lo, hi)
	f0 := f(x0)
	step := firstStep * math.Abs(x0)
	if step == 0 {
		step = firstStep * (hi - lo)
	}
	// Find a downhill direction. a is the point behind the walk (the
	// far end of the bracket), b the lowest point so far.
	a, fa, b, fb := x0, f0, x0, f0
	var dir float64
	left, fl, right, fr := x0, f0, x0, f0
	for dir == 0 {
		r, l := math.Min(x0+step, hi), math.Max(x0-step, lo)
		if !(r > right) && !(l < left) {
			// Both sides clamped (or NaN) and nothing lower: x0 is
			// the best point in reach.
			return brentMin(f, left, fl, right, fr, x0, f0)
		}
		if r > right {
			fv := f(r)
			if fv < fb {
				a, fa, b, fb, dir = right, fr, r, fv, 1
				break
			}
			right, fr = r, fv
		}
		if l < left {
			fv := f(l)
			if fv < fb {
				a, fa, b, fb, dir = left, fl, l, fv, -1
				break
			}
			left, fl = l, fv
		}
		if isFinite(f0) {
			// x0 is no worse than both neighbours: they bracket it.
			return brentMin(f, left, fl, right, fr, x0, f0)
		}
		step *= phi
	}
	// Walk downhill while probes keep falling.
	for {
		step *= phi
		c := Clamp(b+dir*step, lo, hi)
		if c == b {
			return brentMin(f, a, fa, b, fb, b, fb)
		}
		fc := f(c)
		if !(fc < fb) {
			return brentMin(f, a, fa, c, fc, b, fb)
		}
		a, fa, b, fb = b, fb, c, fc
	}
}

// infNaN returns f with NaN values read as +Inf, so every comparison
// below orders them last.
func infNaN(f func(float64) float64) func(float64) float64 {
	return func(x float64) float64 {
		if v := f(x); !math.IsNaN(v) {
			return v
		}
		return math.Inf(1)
	}
}

// brentMin is Brent's minimiser (Algorithms for Minimization Without
// Derivatives, 1973, ch. 5) on the bracket [a, b] from its lowest
// known point x: parabolic interpolation through the three best points,
// with a golden-section step whenever the parabola is not finite, falls
// outside the bracket or does not at least halve the step before last.
// It stops when the bracket is within √ε·|x| of x and returns the best
// point probed.
func brentMin(f func(float64) float64, a, fa, b, fb, x, fx float64) (float64, float64) {
	// Unlike the textbook start (w = v = x, a golden first step), the
	// bracket's ends seed the parabola, so the first step can already
	// interpolate.
	w, fw, v, fv := a, fa, b, fb
	if fb < fa {
		w, fw, v, fv = b, fb, a, fa
	}
	if b < a {
		a, b = b, a
	}
	d := b - a
	e := d
	for iter := 0; iter < 200; iter++ {
		xm := (a + b) / 2
		tol1 := sqrtEps*math.Abs(x) + zeroFloor
		tol2 := 2 * tol1
		if math.Abs(x-xm) <= tol2-(b-a)/2 {
			break
		}
		golden := true
		if math.Abs(e) > tol1 {
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			etemp := e
			e = d
			// Written so that NaN (from non-finite values) fails it.
			if math.Abs(p) < math.Abs(q*etemp/2) && p > q*(a-x) && p < q*(b-x) {
				d = p / q
				if u := x + d; u-a < tol2 || b-u < tol2 {
					d = math.Copysign(tol1, xm-x)
				}
				golden = false
			}
		}
		if golden {
			if x >= xm {
				e = a - x
			} else {
				e = b - x
			}
			d = cgold * e
		}
		u := x + d
		if math.Abs(d) < tol1 {
			u = x + math.Copysign(tol1, d)
		}
		fu := f(u)
		if fu <= fx {
			if u >= x {
				a = x
			} else {
				b = x
			}
			v, w, x = w, x, u
			fv, fw, fx = fw, fx, fu
		} else {
			if u < x {
				a = u
			} else {
				b = u
			}
			if fu <= fw || w == x {
				v, w, fv, fw = w, u, fw, fu
			} else if fu <= fv || v == x || v == w {
				v, fv = u, fu
			}
		}
	}
	return x, fx
}

// MinimizeConvexInt minimises a convex function f over the integers in
// [lo, hi] by ternary search. It returns the argmin and minimum value.
// For non-convex f the result is a local minimum.
func MinimizeConvexInt(f func(int) float64, lo, hi int) (int, float64) {
	if lo > hi {
		lo, hi = hi, lo
	}
	for hi-lo > 2 {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if f(m1) <= f(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	best, fbest := lo, f(lo)
	for k := lo + 1; k <= hi; k++ {
		if fk := f(k); fk < fbest {
			best, fbest = k, fk
		}
	}
	return best, fbest
}

// MinimizeConvexIntFrom minimises a convex function f over the
// integers in [lo, hi] by unit-step descent from start (clamped into
// the range). It costs at most |argmin - start| + 3 evaluations, so a
// good seed (e.g. the rounded rational optimum of Theorems 2-4) makes
// it far cheaper than MinimizeConvexInt's ~2·log_{3/2}(hi-lo) probes.
// On ties it walks left, returning the smallest argmin, as
// MinimizeConvexInt does for unimodal f. If the descent lands on a
// non-finite value (a diverging regime, where f need not be unimodal)
// it falls back to MinimizeConvexInt over the whole range, so
// degenerate inputs are searched exactly as there.
func MinimizeConvexIntFrom(f func(int) float64, lo, hi, start int) (int, float64) {
	if lo > hi {
		lo, hi = hi, lo
	}
	k := min(max(start, lo), hi)
	fk := f(k)
	if isFinite(fk) {
		// Walk left while not worse (ties go left), else right while
		// strictly better.
		left := false
		for k > lo {
			fl := f(k - 1)
			if !(fl <= fk) {
				break
			}
			k, fk, left = k-1, fl, true
		}
		if !left {
			for k < hi {
				fr := f(k + 1)
				if !(fr < fk) {
					break
				}
				k, fk = k+1, fr
			}
		}
		if isFinite(fk) {
			return k, fk
		}
	}
	return MinimizeConvexInt(f, lo, hi)
}

func isFinite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// IntNeighborhood returns the candidate integer values around the
// rational optimum x, clamped to be at least 1: max(1, floor(x)) and
// ceil(x). This is the rounding rule of Theorems 2-4.
func IntNeighborhood(x float64) []int {
	lo := int(math.Floor(x))
	if lo < 1 {
		lo = 1
	}
	hi := int(math.Ceil(x))
	if hi < 1 {
		hi = 1
	}
	if lo == hi {
		return []int{lo}
	}
	return []int{lo, hi}
}

// Brent finds a root of f in [a, b] using the Brent-Dekker method.
// f(a) and f(b) must have opposite signs.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if fa*fb > 0 {
		return 0, ErrNoBracket
	}
	if tol <= 0 {
		tol = 1e-12
	}
	c, fc := a, fa
	d, e := b-a, b-a
	for i := 0; i < 200; i++ {
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol1 := 2*math.SmallestNonzeroFloat64*math.Abs(b) + tol/2
		xm := (c - b) / 2
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			s := fb / fa
			var p, q float64
			if a == c {
				p = 2 * xm * s
				q = 1 - s
			} else {
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			if 2*p < math.Min(3*xm*q-math.Abs(tol1*q), math.Abs(e*q)) {
				e, d = d, p/q
			} else {
				d, e = xm, xm
			}
		} else {
			d, e = xm, xm
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else if xm > 0 {
			b += tol1
		} else {
			b -= tol1
		}
		fb = f(b)
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d, e = b-a, b-a
		}
	}
	return b, nil
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// SqrtRatio returns sqrt(num/den), guarding against a zero denominator
// (returns +Inf) and negative operands (returns NaN), mirroring the
// W* = sqrt(oef/orw) closed form.
func SqrtRatio(num, den float64) float64 {
	if den == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}
