package agreeable

import (
	"math"

	"sdem/internal/numeric"
)

// The block-local problem. For the deadline-sorted tasks [from..to] run in
// one memory busy interval [x, y] = [s', e'], the energy is
//
//	E(x, y) = α_m·(y − x) + Σ_k coreE_k(a_k),  a_k = min(d_k, y) − max(r_k, x),
//
// jointly convex (see the package comment). Its subgradient has a closed
// form through the critical speeds: a task whose window a runs it at the
// filled speed f = w/a has
//
//	coreE′(a) = min(0, α_k − β(λ−1)·f^λ),
//
// which vanishes once f drops to the critical speed s_m (the task then runs
// at s₀ and its window is slack) and equals −α_m where f reaches the
// memory-associated critical speed s₁ — the §5.2 stationarity condition of
// a task aligned with one end of the busy interval. E is smooth except on
// the lines x = r_k and y = d_k, and on the s_up floors a_k ≥ w_k/s_up.
//
// blockSolve minimizes E by root finding on that subgradient instead of
// probing E: the inner search puts y on the sign change of ∂E/∂y for a
// fixed x, and the outer one puts x on the sign change of the derivative
// of h(x) = min_y E(x, y). On each axis a binary search over the block's
// sorted releases (or deadlines) finds the smooth piece that holds the root
// or shows the root sits on a kink, and safeguarded Newton with closed-form
// second derivatives finishes inside the piece.

// flatTol is the relative size below which the outer derivative counts as
// zero: far above its rounding noise, far below any slope that moves the
// block cost by relTol.
const flatTol = 1e-12

// slope returns coreE_k′(a) and coreE_k″(a) for task k given a window of
// length a. At s_up the speed stops rising, so the slope is held at its
// capped value. For a task paying static power, a filled speed at or
// below the slack threshold returns the slack zero before any power is
// priced; the threshold sits where the exact test below is certain to
// pass, so the result is the same bits either way.
func (s *solver) slope(k int, a float64) (g, dg float64) {
	if a <= 0 {
		return math.Inf(-1), 0
	}
	core := s.sys.Core
	f := s.tasks[k].Workload / a
	if s.static[k] > 0 && f <= s.slack {
		return 0, 0
	}
	capped := core.SpeedMax > 0 && f >= core.SpeedMax
	if capped {
		f = core.SpeedMax
	}
	p := s.dynSlope * core.PowLambda(f)
	if p <= s.static[k] {
		return 0, 0 // at or below the critical speed: the window is slack
	}
	if capped {
		return s.static[k] - p, 0
	}
	return s.static[k] - p, core.Lambda * p / a
}

// endSlope returns the left and right derivatives of E(x, ·) at y and the
// second derivative on the right. Only tasks due at or after y depend on
// y, and they are a suffix of the block. It and startSlope are the
// innermost kernels of the block search, reached through func values.
//
//sdem:hotpath
func (s *solver) endSlope(from, to int, x, y float64) (left, right, curv float64) {
	s.slopeEvals++
	left, right = s.sys.Memory.Static, s.sys.Memory.Static
	for k := to; k >= from && s.tasks[k].Deadline >= y; k-- {
		t := &s.tasks[k]
		g, dg := s.slope(k, y-math.Max(t.Release, x))
		left += g
		if t.Deadline > y {
			right += g
			curv += dg
		}
	}
	return left, right, curv
}

// startSlope returns the left and right derivatives of E(·, y) at x, the
// second derivatives E_xx and E_xy, and the magnitude of the terms summed
// into the derivatives. Only tasks released at or before x depend on x,
// and they are a prefix of the block.
//
//sdem:hotpath
func (s *solver) startSlope(from, to int, x, y float64) (left, right, xx, xy, scale float64) {
	s.slopeEvals++
	left, right = -s.sys.Memory.Static, -s.sys.Memory.Static
	scale = s.sys.Memory.Static
	for k := from; k <= to && s.tasks[k].Release <= x; k++ {
		t := &s.tasks[k]
		g, dg := s.slope(k, math.Min(t.Deadline, y)-x)
		right -= g
		if t.Release < x {
			left -= g
		}
		scale -= g
		xx += dg
		if t.Deadline > y {
			xy -= dg
		}
	}
	return left, right, xx, xy, scale
}

// endFloor returns the earliest feasible busy end for busy start x: every
// task needs a window of at least minAvail. capLeft and capRight report
// whether the floor is set by a task released before x, whose window then
// shrinks as x grows, so moving x drags the optimal end along with it
// (capRight counts tasks released at x, capLeft only those strictly
// before, and a tie with a fixed floor pins the end when x decreases).
func (s *solver) endFloor(from, to int, x float64) (floor float64, capLeft, capRight bool) {
	fixedGt := s.tasks[to].Release // floor from tasks released after x
	fixedGe := fixedGt             // ... and from tasks released at x
	capLe, capLt := math.Inf(-1), math.Inf(-1)
	for k := from; k <= to; k++ {
		r, m := s.tasks[k].Release, s.minAvail[k]
		switch {
		case r > x:
			fixedGt = math.Max(fixedGt, r+m)
			fixedGe = math.Max(fixedGe, r+m)
		case r < x:
			capLt = math.Max(capLt, x+m)
			capLe = math.Max(capLe, x+m)
		default:
			capLe = math.Max(capLe, x+m)
			fixedGe = math.Max(fixedGe, r+m)
		}
	}
	return math.Max(fixedGt, capLe), capLt > fixedGe, capLe >= fixedGt
}

// bestEnd minimizes E(x, ·) over [floor, d_to], starting Newton from
// guess. smooth reports that the optimum lies inside a smooth piece
// rather than on the floor, the last deadline or a deadline kink.
func (s *solver) bestEnd(from, to int, x, floor, guess float64) (y float64, smooth bool) {
	hi := s.tasks[to].Deadline
	first, last := to+1, to // deadlines strictly inside (floor, hi)
	for first > from && s.tasks[first-1].Deadline > floor {
		first--
	}
	for last >= first && s.tasks[last].Deadline >= hi {
		last--
	}
	//lint:allow hotalloc: stays on the stack; minimizeKinked does not retain it
	deriv := func(y float64) (float64, float64, float64) { return s.endSlope(from, to, x, y) }
	//lint:allow hotalloc: stays on the stack, as deriv
	kink := func(i int) float64 { return s.tasks[first+i].Deadline }
	return minimizeKinked(deriv, kink, last-first+1, floor, hi, guess)
}

// startDeriv returns the left and right derivatives of h(x) = min_y E(x, y)
// at x, its second derivative on the right, and the optimal end y (found
// from guess). By the envelope theorem h′ is ∂E/∂x at (x, y), plus ∂E/∂y
// when the end is dragged along an s_up floor set by a task released
// before x.
func (s *solver) startDeriv(from, to int, x, guess float64) (left, right, curv, y float64) {
	floor, capLeft, capRight := s.endFloor(from, to, x)
	y, smooth := s.bestEnd(from, to, x, floor, guess)
	if y != floor { //lint:allow floatcmp: bestEnd returns the floor itself when the floor binds
		capLeft, capRight = false, false
	}
	left, right, xx, xy, scale := s.startSlope(from, to, x, y)
	yLeft, yRight, yy := s.endSlope(from, to, x, y)
	if capLeft {
		left += math.Max(0, yLeft)
	}
	switch {
	case capRight:
		// y = x + minAvail: h″ is E's curvature along the diagonal.
		right += yRight
		curv = xx + 2*xy + yy
	case smooth && yy > 0:
		// y tracks x through the interior optimum: the Schur complement.
		// One Newton step of y cancels the inner search's residual in h′,
		// so a flat h′ reads as zero to rounding and the snap below holds.
		left -= xy * yRight / yy
		right -= xy * yRight / yy
		curv = xx - xy*xy/yy
	default:
		curv = xx
	}
	// Rigidly sliding a block whose tasks all span it leaves E unchanged,
	// so h′ vanishes on a whole interval up to rounding. Snapping that
	// rounding to zero makes the search return the earliest such interval.
	// (An empty window makes the scale infinite; nothing is flat there.)
	if tol := flatTol * scale; !math.IsInf(tol, 1) {
		if math.Abs(left) <= tol {
			left = 0
		}
		if math.Abs(right) <= tol {
			right = 0
		}
	}
	return left, right, curv, y
}

// blockSolve finds the optimal busy interval for tasks [from..to]. The DP
// memoizes it per (from, to) and calls it only for blocks its lower bound
// cannot rule out, so it runs at most n(n+1)/2 times per solve; it
// returns an infinite-cost block without solving once the solve's context
// is done.
//
//sdem:hotpath
func (s *solver) blockSolve(from, to int) Block {
	if s.ctx != nil && s.ctx.Err() != nil {
		return Block{From: from, To: to, Cost: math.Inf(1)}
	}
	s.blockSolves++
	// The busy start lies in the first task's window, and late enough
	// starts would squeeze some task below its s_up floor.
	lo, hi := s.tasks[from].Release, s.tasks[from].Deadline
	for k := from; k <= to; k++ {
		hi = math.Min(hi, s.tasks[k].Deadline-s.minAvail[k])
	}
	first := from // releases strictly inside (lo, hi)
	for first <= to && s.tasks[first].Release <= lo {
		first++
	}
	last := first - 1
	for last < to && s.tasks[last+1].Release < hi {
		last++
	}
	y := math.NaN() // the last inner optimum seeds the next inner search
	//lint:allow hotalloc: stays on the stack; minimizeKinked does not retain it
	deriv := func(x float64) (left, right, curv float64) {
		left, right, curv, y = s.startDeriv(from, to, x, y)
		return left, right, curv
	}
	//lint:allow hotalloc: stays on the stack, as deriv
	kink := func(i int) float64 { return s.tasks[first+i].Release }
	x, _ := minimizeKinked(deriv, kink, last-first+1, lo, hi, math.NaN())
	floor, _, _ := s.endFloor(from, to, x)
	y, _ = s.bestEnd(from, to, x, floor, y)
	return Block{From: from, To: to, BusyStart: x, BusyEnd: y, Cost: s.blockEnergy(from, to, x, y)}
}

// minimizeKinked minimizes a convex function on [lo, hi] given by its
// one-sided derivatives: deriv(z) returns the left and right derivatives
// at z and the second derivative on the right. The function is smooth
// between its n kinks, the sorted points kink(0..n−1), all strictly
// inside (lo, hi). A binary search over the kinks brackets the root of the
// derivative in one smooth piece (or finds it on a kink), and NewtonRoot
// from guess finishes there. smooth reports an optimum inside a piece.
func minimizeKinked(deriv func(z float64) (left, right, curv float64), kink func(i int) float64, n int, lo, hi, guess float64) (z float64, smooth bool) {
	if _, right, _ := deriv(lo); right >= 0 {
		return lo, false
	}
	if left, _, _ := deriv(hi); left <= 0 {
		return hi, false
	}
	i, j := 0, n // the first kink with a non-negative right derivative
	for i < j {
		m := int(uint(i+j) >> 1)
		if _, right, _ := deriv(kink(m)); right >= 0 {
			j = m
		} else {
			i = m + 1
		}
	}
	a, b := lo, hi
	if i > 0 {
		a = kink(i - 1)
	}
	if i < n {
		b = kink(i)
		if left, _, _ := deriv(b); left <= 0 {
			return b, false
		}
	}
	//lint:allow hotalloc: the Newton adapter closure stays on the stack; NewtonRoot does not retain it
	return numeric.NewtonRoot(func(z float64) (float64, float64) {
		_, right, curv := deriv(z)
		return right, curv
	}, a, b, guess, relTol/1000), true
}

// blockEnergy evaluates the block objective E(bs, be) for tasks
// [from..to]. Tasks released before bs (a prefix of the block) or due
// after be (a suffix) have clipped windows; every task between them runs
// in its full window, whose energies come from prefix sums.
func (s *solver) blockEnergy(from, to int, bs, be float64) float64 {
	if be <= bs {
		return math.Inf(1)
	}
	e := s.sys.Memory.Static * (be - bs)
	lo, hi := from, to
	for ; lo <= to && s.tasks[lo].Release < bs; lo++ {
		e += s.clippedEnergy(lo, bs, be)
	}
	for ; hi >= lo && s.tasks[hi].Deadline > be; hi-- {
		e += s.clippedEnergy(hi, bs, be)
	}
	if lo <= hi {
		e += s.fullPrefix[hi+1] - s.fullPrefix[lo]
	}
	return e
}

// clippedEnergy is task k's core energy in its window clipped to the busy
// interval [bs, be].
func (s *solver) clippedEnergy(k int, bs, be float64) float64 {
	t := &s.tasks[k]
	e, _ := s.coreEnergy(k, math.Min(t.Deadline, be)-math.Max(t.Release, bs))
	return e
}
