package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMinimizeConvexQuadratic(t *testing.T) {
	cases := []struct {
		name       string
		f          func(float64) float64
		lo, hi     float64
		wantX      float64
		wantF      float64
		argTol     float64
		shiftedMin bool
	}{
		{
			name: "interior minimum",
			f:    func(x float64) float64 { return (x - 3) * (x - 3) },
			lo:   -10, hi: 10, wantX: 3, wantF: 0, argTol: 1e-6,
		},
		{
			name: "minimum at left boundary",
			f:    func(x float64) float64 { return x * x },
			lo:   2, hi: 9, wantX: 2, wantF: 4, argTol: 1e-6,
		},
		{
			name: "minimum at right boundary",
			f:    func(x float64) float64 { return -x },
			lo:   0, hi: 5, wantX: 5, wantF: -5, argTol: 1e-6,
		},
		{
			name: "degenerate interval",
			f:    func(x float64) float64 { return x * x },
			lo:   4, hi: 4, wantX: 4, wantF: 16, argTol: 1e-12,
		},
	}
	for _, tc := range cases {
		x, fx := MinimizeConvex(tc.f, tc.lo, tc.hi, 1e-10)
		if math.Abs(x-tc.wantX) > tc.argTol {
			t.Errorf("%s: x = %g, want %g", tc.name, x, tc.wantX)
		}
		if math.Abs(fx-tc.wantF) > 1e-6 {
			t.Errorf("%s: f(x) = %g, want %g", tc.name, fx, tc.wantF)
		}
	}
}

func TestMinimizeConvexSwappedBounds(t *testing.T) {
	x, _ := MinimizeConvex(func(x float64) float64 { return (x - 1) * (x - 1) }, 5, -5, 1e-10)
	if math.Abs(x-1) > 1e-6 {
		t.Errorf("swapped bounds: x = %g, want 1", x)
	}
}

func TestMinimizeConvexEnergyShape(t *testing.T) {
	// The SDEM per-case energy E(Δ) = α_m(L−Δ) + K(L−Δ)^{1−λ} has the
	// closed-form minimizer Δ* = L − (K(λ−1)/α_m)^{1/λ}. Check that the
	// numeric search finds it.
	alphaM, K, L, lambda := 4.0, 2.0e-3, 0.5, 3.0
	f := func(d float64) float64 {
		b := L - d
		if b <= 0 {
			return math.Inf(1)
		}
		return alphaM*b + K*math.Pow(b, 1-lambda)
	}
	want := L - math.Pow(K*(lambda-1)/alphaM, 1/lambda)
	x, _ := MinimizeConvex(f, 0, L, 1e-12)
	if math.Abs(x-want) > 1e-7 {
		t.Errorf("Δ* = %g, want %g", x, want)
	}
}

func TestMinimizeConvexWithInfPlateau(t *testing.T) {
	// Extended-value convex function: +Inf for x < 2, decreasing-then-flat
	// beyond. The feasible minimum is at x = 3.
	f := func(x float64) float64 {
		if x < 2 {
			return math.Inf(1)
		}
		return (x - 3) * (x - 3)
	}
	x, fx := MinimizeConvex(f, 0, 10, 1e-10)
	if math.Abs(x-3) > 1e-5 || fx > 1e-9 {
		t.Errorf("inf plateau: x = %g f = %g, want x = 3 f = 0", x, fx)
	}
}

func TestBisect(t *testing.T) {
	root, ok := Bisect(func(x float64) float64 { return x*x*x - 8 }, 0, 10, 1e-12)
	if !ok || math.Abs(root-2) > 1e-6 {
		t.Errorf("root = %g ok=%v, want 2", root, ok)
	}
	if _, ok := Bisect(func(x float64) float64 { return x*x + 1 }, -5, 5, 1e-12); ok {
		t.Error("Bisect reported success without a sign change")
	}
	root, ok = Bisect(func(x float64) float64 { return x }, 0, 5, 1e-12)
	if !ok || root != 0 {
		t.Errorf("exact-zero endpoint: root = %g ok=%v", root, ok)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}

func TestPropertyMinimizeConvexBeatsSamples(t *testing.T) {
	// Property: for random convex parabolas on random intervals the
	// numeric minimum is no worse than any sampled point.
	f := func(aRaw, cRaw, loRaw, spanRaw uint32) bool {
		a := 0.1 + float64(aRaw%100)/10
		c := -50 + float64(cRaw%1000)/10
		lo := -100 + float64(loRaw%2000)/10
		hi := lo + 0.1 + float64(spanRaw%1000)/10
		fun := func(x float64) float64 { return a * (x - c) * (x - c) }
		_, fx := MinimizeConvex(fun, lo, hi, 1e-10)
		for i := 0; i <= 20; i++ {
			x := lo + (hi-lo)*float64(i)/20
			if fun(x) < fx-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBisectFindsRootOfMonotone(t *testing.T) {
	f := func(aRaw, bRaw uint32) bool {
		a := 0.5 + float64(aRaw%100)/10
		b := -20 + float64(bRaw%400)/10
		fun := func(x float64) float64 { return a*x + b }
		want := -b / a
		root, ok := Bisect(fun, -100, 100, 1e-12)
		return ok && math.Abs(root-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1, 1+1e-13, 1e-9) {
		t.Error("tiny relative difference should be equal")
	}
	if AlmostEqual(1, 1.1, 1e-9) {
		t.Error("10% difference should not be equal")
	}
	if !AlmostEqual(0, 1e-12, 1e-9) {
		t.Error("absolute comparison near zero failed")
	}
}

func TestApproxEqual(t *testing.T) {
	inf := math.Inf(1)
	nan := math.NaN()
	denorm := math.SmallestNonzeroFloat64 // 4.9e-324, denormal
	cases := []struct {
		name      string
		a, b, tol float64
		want      bool
	}{
		{"identical", 1.5, 1.5, 1e-9, true},
		{"within relative tol", 1e12, 1e12 * (1 + 1e-10), 1e-9, true},
		{"outside relative tol", 1e12, 1e12 * (1 + 1e-6), 1e-9, false},
		{"within absolute tol below 1", 1e-15, 2e-15, 1e-9, true},
		{"sign difference", 1e-3, -1e-3, 1e-9, false},
		{"nan left", nan, 0, 1e-9, false},
		{"nan right", 0, nan, 1e-9, false},
		{"nan both", nan, nan, 1e-9, false},
		{"inf equal sign", inf, inf, 1e-9, true},
		{"inf opposite sign", inf, -inf, 1e-9, false},
		{"neg inf equal", -inf, -inf, 1e-9, true},
		{"inf vs finite", inf, 1e308, 1e-9, false},
		{"finite vs neg inf", -1e308, -inf, 1e-9, false},
		{"denormal pair", denorm, 2 * denorm, 1e-12, true},
		{"denormal vs zero", denorm, 0, 1e-12, true},
		{"zero tol falls back to default", 1, 1 + 1e-13, 0, true},
		{"negative zero vs zero", math.Copysign(0, -1), 0, 1e-12, true},
	}
	for _, tc := range cases {
		if got := ApproxEqual(tc.a, tc.b, tc.tol); got != tc.want {
			t.Errorf("%s: ApproxEqual(%g, %g, %g) = %v, want %v", tc.name, tc.a, tc.b, tc.tol, got, tc.want)
		}
	}
}

func TestApproxEqualSymmetric(t *testing.T) {
	f := func(a, b float64) bool {
		return ApproxEqual(a, b, 1e-9) == ApproxEqual(b, a, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsZero(t *testing.T) {
	denorm := math.SmallestNonzeroFloat64
	cases := []struct {
		name   string
		v, tol float64
		want   bool
	}{
		{"exact zero exact tol", 0, 0, true},
		{"negative zero exact tol", math.Copysign(0, -1), 0, true},
		{"denormal exact tol", denorm, 0, false},
		{"denormal loose tol", denorm, 1e-12, true},
		{"within tol", 5e-10, 1e-9, true},
		{"at tol boundary", 1e-9, 1e-9, true},
		{"outside tol", 2e-9, 1e-9, false},
		{"negative within tol", -5e-10, 1e-9, true},
		{"nan never zero", math.NaN(), 1e-9, false},
		{"nan never zero exact", math.NaN(), 0, false},
		{"inf never zero", math.Inf(1), 1e-9, false},
		{"negative tol falls back to default", 1e-13, -1, true},
		{"negative tol default rejects large", 1e-3, -1, false},
	}
	for _, tc := range cases {
		if got := IsZero(tc.v, tc.tol); got != tc.want {
			t.Errorf("%s: IsZero(%g, %g) = %v, want %v", tc.name, tc.v, tc.tol, got, tc.want)
		}
	}
}

func TestNewtonRoot(t *testing.T) {
	cases := []struct {
		name   string
		f      func(float64) (float64, float64)
		lo, hi float64
		x0     float64
		want   float64
	}{
		{
			// The SDEM slope shape α − K·a^{−3}: concave and steep near 0.
			name: "power-law slope",
			f:    func(a float64) (float64, float64) { return 4 - 2e-6/(a*a*a), 6e-6 / (a * a * a * a) },
			lo:   1e-6, hi: 1, x0: 1e-3, want: math.Cbrt(2e-6 / 4),
		},
		{
			name: "start outside bracket falls back to midpoint",
			f:    func(x float64) (float64, float64) { return x*x*x - 8, 3 * x * x },
			lo:   0, hi: 10, x0: 42, want: 2,
		},
		{
			// A monotone step function has no useful derivative: bisection
			// must still land on the jump.
			name: "jump without derivative",
			f: func(x float64) (float64, float64) {
				if x < 0.3 {
					return -1, 0
				}
				return 1, 0
			},
			lo: 0, hi: 1, x0: 0.9, want: 0.3,
		},
	}
	for _, tc := range cases {
		got := NewtonRoot(tc.f, tc.lo, tc.hi, tc.x0, 1e-12)
		if math.Abs(got-tc.want) > 1e-11 {
			t.Errorf("%s: root %.15g, want %.15g", tc.name, got, tc.want)
		}
	}
}

func TestPropertyNewtonRootAgreesWithBisect(t *testing.T) {
	// f(x) = a·x + b·x³ − c with a, b > 0 is strictly increasing.
	prop := func(a8, b8, c8 uint8) bool {
		a := 0.1 + float64(a8)/10
		b := 0.01 + float64(b8)/100
		c := float64(c8)
		f := func(x float64) float64 { return a*x + b*x*x*x - c }
		want, ok := Bisect(f, -100, 100, 1e-14)
		if !ok {
			return false
		}
		got := NewtonRoot(func(x float64) (float64, float64) { return f(x), a + 3*b*x*x }, -100, 100, 0, 1e-14)
		return math.Abs(got-want) <= 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Bisect finds a root of f in [lo, hi] assuming f(lo) and f(hi) have
// opposite signs (or one of them is zero). It returns the midpoint of the
// final bracket. ok is false when the initial bracket does not straddle a
// sign change.
func Bisect(f func(float64) float64, lo, hi, tol float64) (root float64, ok bool) {
	if tol <= 0 {
		tol = DefaultTol
	}
	flo, fhi := f(lo), f(hi)
	if flo == 0 { //lint:allow floatcmp: an exact root short-circuits bracketing; near-roots converge normally
		return lo, true
	}
	if fhi == 0 { //lint:allow floatcmp: see above
		return hi, true
	}
	if math.Signbit(flo) == math.Signbit(fhi) {
		return 0, false
	}
	eps := tol * math.Max(1, math.Max(math.Abs(lo), math.Abs(hi)))
	for i := 0; i < 200 && hi-lo > eps; i++ {
		mid := lo + (hi-lo)/2
		fm := f(mid)
		if fm == 0 { //lint:allow floatcmp: an exact root ends bisection early; no rounding hazard
			return mid, true
		}
		if math.Signbit(fm) == math.Signbit(flo) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, true
}
