// Package numeric provides the small numerical toolbox of the SDEM
// schedulers: one-dimensional convex minimization on an interval
// (golden-section search, which the bounded partition scan runs and the
// closed-form common-release and agreeable solvers keep as their test
// oracle), safeguarded Newton root finding (the agreeable block solve),
// and the clamp and tolerance comparisons. All routines work on plain
// float64 functions and are deterministic.
package numeric

import (
	"math"
)

// invPhi is 1/φ, the golden-section step ratio.
var invPhi = (math.Sqrt(5) - 1) / 2

// DefaultTol is the relative tolerance used when a caller passes tol <= 0.
const DefaultTol = 1e-12

// MinimizeConvex finds the minimizer of a convex function f on [lo, hi]
// using golden-section search, returning the argmin and the minimum value.
// The result is accurate to tol·max(1, |lo|, |hi|) in the argument. For a
// strictly convex f the minimizer is unique; for merely convex f some
// minimizer is returned. f may return +Inf on sub-intervals as long as the
// finite region is contiguous (an extended-value convex function).
func MinimizeConvex(f func(float64) float64, lo, hi, tol float64) (x, fx float64) {
	if tol <= 0 {
		tol = DefaultTol
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	span := hi - lo
	eps := tol * math.Max(1, math.Max(math.Abs(lo), math.Abs(hi)))
	if span <= eps {
		mid := (lo + hi) / 2
		return mid, f(mid)
	}
	// Track the best point ever evaluated: near constraint boundaries an
	// extended-value f can return +Inf on re-evaluation of an
	// infinitesimally shifted argument, so trusting a final midpoint
	// probe would discard the converged optimum.
	// The best-so-far tracking is inlined rather than factored into a
	// closure: a closure over bestX/bestF would force them to the heap on
	// every call, and this routine is the inner loop of the partition
	// scan.
	bestX, bestF := lo, f(lo)
	if fe := f(hi); fe < bestF {
		bestX, bestF = hi, fe
	}
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	if fc < bestF {
		bestX, bestF = c, fc
	}
	if fd < bestF {
		bestX, bestF = d, fd
	}
	// Golden-section needs at most ~log(span/eps)/log(φ) iterations; cap
	// defensively so pathological inputs cannot loop forever.
	for i := 0; i < 400 && b-a > eps; i++ {
		// Treat +Inf plateaus: shrink towards the finite side.
		switch {
		case math.IsInf(fc, 1) && math.IsInf(fd, 1):
			// Both probes are infeasible; the feasible region (if any)
			// is in one of the thirds. Shrink blindly towards centre.
			a, b = c, d
			c = b - invPhi*(b-a)
			d = a + invPhi*(b-a)
			fc, fd = f(c), f(d)
			continue
		case fc <= fd:
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
			if fc < bestF {
				bestX, bestF = c, fc
			}
		default:
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
			if fd < bestF {
				bestX, bestF = d, fd
			}
		}
	}
	mid := (a + b) / 2
	if fm := f(mid); fm < bestF {
		bestX, bestF = mid, fm
	}
	return bestX, bestF
}

// NewtonRoot finds the smallest root of a non-decreasing function f on the
// bracket [lo, hi], where f(lo) < 0 ≤ f(hi); f returns its value and its
// derivative. It takes Newton steps from x0 (the bracket midpoint when x0
// lies outside it) and falls back to bisection whenever a step would leave
// the bracket or fails to halve it, so it converges quadratically on a
// smooth f and still converges on a merely monotone one. Where f is zero
// on a whole interval the bisection walks to its left end. The result is
// accurate to tol·max(1, |lo|, |hi|).
func NewtonRoot(f func(x float64) (fx, dfx float64), lo, hi, x0, tol float64) float64 {
	if tol <= 0 {
		tol = DefaultTol
	}
	eps := tol * math.Max(1, math.Max(math.Abs(lo), math.Abs(hi)))
	x := x0
	if !(x > lo && x < hi) {
		x = lo + (hi-lo)/2
	}
	dxOld, dx := hi-lo, hi-lo
	fx, dfx := f(x)
	for i := 0; i < 200; i++ {
		if fx < 0 {
			lo = x
		} else {
			hi = x
		}
		next := x - fx/dfx
		if dfx > 0 && next > lo && next < hi && math.Abs(2*fx) <= math.Abs(dxOld*dfx) {
			dxOld, dx = dx, fx/dfx
			x = next
		} else {
			dxOld, dx = dx, (hi-lo)/2
			x = lo + dx
		}
		if math.Abs(dx) <= eps {
			return x
		}
		fx, dfx = f(x)
	}
	return x
}

// Clamp restricts v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// AlmostEqual reports whether a and b agree to within a relative tolerance
// tol (absolute for magnitudes below 1).
func AlmostEqual(a, b, tol float64) bool {
	if a == b { //lint:allow floatcmp: bit-exact fast path of the comparison helper itself
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*math.Max(scale, 1)
}

// ApproxEqual reports whether a and b agree to within tolerance tol,
// interpreted relatively for magnitudes above 1 and absolutely below
// (the same hybrid rule as AlmostEqual). It is the comparison the
// floatcmp analyzer steers `==`/`!=` on physical quantities towards.
//
// Edge cases follow IEEE-754 intuition rather than bit equality:
// NaN compares unequal to everything including itself; equal-signed
// infinities compare equal; opposite-signed or mixed finite/infinite
// operands compare unequal regardless of tol; denormals compare via
// the absolute branch, so two denormals are equal under any tol ≥ 0
// larger than their difference. A tol <= 0 falls back to DefaultTol.
func ApproxEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b //lint:allow floatcmp: infinities carry no rounding error
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	return AlmostEqual(a, b, tol)
}

// IsZero reports whether v is zero to within the absolute tolerance tol.
// A tol of exactly 0 requires bit-exact zero (±0), which is the right
// test for "field left at its zero value" sentinels; physical
// quantities accumulated through arithmetic should pass an explicit
// tolerance such as schedule.Tol. NaN is never zero. A negative tol
// falls back to DefaultTol.
func IsZero(v, tol float64) bool {
	if math.IsNaN(v) {
		return false
	}
	if tol < 0 {
		tol = DefaultTol
	}
	return math.Abs(v) <= tol
}
