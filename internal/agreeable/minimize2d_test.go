package agreeable

import (
	"math"
	"testing"

	"sdem/internal/numeric"
)

// The nested two-dimensional golden-section search: the block-solve
// oracle the closed-form subgradient root finding (block.go) is pinned
// against.

// Box is an axis-aligned rectangle [X0,X1]×[Y0,Y1].
type Box struct {
	X0, X1, Y0, Y1 float64
}

// MinimizeConvex2D minimizes a jointly convex function f over the box using
// nested golden-section search: the outer search runs over x, and for each
// x the inner search minimizes over y. The partial minimum
// g(x) = min_y f(x,y) of a jointly convex f is convex, so the nesting is
// exact up to tolerance. Returns the argmin pair and the value.
func MinimizeConvex2D(f func(x, y float64) float64, b Box, tol float64) (x, y, fxy float64) {
	if tol <= 0 {
		// Nested golden-section loses ~2 digits over the 1-D search, so the
		// default is two decades looser than DefaultTol.
		tol = 100 * numeric.DefaultTol
	}
	inner := func(x float64) (float64, float64) {
		return numeric.MinimizeConvex(func(yy float64) float64 { return f(x, yy) }, b.Y0, b.Y1, tol)
	}
	g := func(x float64) float64 {
		_, v := inner(x)
		return v
	}
	x, _ = numeric.MinimizeConvex(g, b.X0, b.X1, tol)
	y, fxy = inner(x)
	return x, y, fxy
}

func TestMinimizeConvex2D(t *testing.T) {
	f := func(x, y float64) float64 { return (x-1)*(x-1) + (y+2)*(y+2) + 0.5*(x-1)*(y+2) }
	x, y, v := MinimizeConvex2D(f, Box{X0: -10, X1: 10, Y0: -10, Y1: 10}, 1e-11)
	if math.Abs(x-1) > 1e-4 || math.Abs(y+2) > 1e-4 {
		t.Errorf("argmin = (%g, %g), want (1, -2)", x, y)
	}
	if v > 1e-7 {
		t.Errorf("min value = %g, want 0", v)
	}
}

func TestMinimizeConvex2DBoundary(t *testing.T) {
	// Unconstrained minimum at (−1, −1) lies outside the box; the
	// constrained minimum is the nearest corner (0, 0).
	f := func(x, y float64) float64 { return (x+1)*(x+1) + (y+1)*(y+1) }
	x, y, _ := MinimizeConvex2D(f, Box{X0: 0, X1: 4, Y0: 0, Y1: 4}, 1e-11)
	if math.Abs(x) > 1e-5 || math.Abs(y) > 1e-5 {
		t.Errorf("argmin = (%g, %g), want (0, 0)", x, y)
	}
}
