package commonrelease

import (
	"math"
	"sort"

	"sdem/internal/numeric"
	"sdem/internal/schedule"
	"sdem/internal/task"
)

// overheadHorizon is the §7 maximal interval max_j (d_j − r_j) over the
// absolute task set; the constrained critical speed s_c depends on it.
func overheadHorizon(tasks task.Set) float64 {
	var horizon float64
	for _, t := range tasks {
		horizon = math.Max(horizon, t.Deadline-t.Release)
	}
	return horizon
}

// evalOverhead is the scan's objective: the audited energy of the
// busy-length-L candidate, +Inf outside the feasible region. It prices
// the candidate in closed form (energyClosed) instead of building and
// auditing a schedule; the overhead tests pin the two against each other.
func (in *instance) evalOverhead(L float64) float64 {
	in.evals++
	if L <= 0 {
		return math.Inf(1)
	}
	if L < in.capFor(L)-schedule.Tol {
		return math.Inf(1)
	}
	return in.energyClosed(L)
}

// overheadScan minimizes the §7 objective over busy length and returns
// the winner plus its 1-based case index. The audited energy E(L) is
// convex between the structural breakpoints: the natural completions c_j
// (where the aligned set changes) and d_max − ξ_m, d_max − ξ (where the
// memory / aligned-core idle tail crosses its break-even time, flipping
// the sleep decision of SleepBreakEven accounting). On each such piece E
// has the §4.2 case shape K + β·Σw^λ·L^(1−λ) + C·L, so its closed-form
// stationary point bounds the piece from below, and a piece is priced at
// a handful of closed-form candidates (searchPiece): the clamped
// stationary point, the ends of the feasible span and the Tol-wide
// slivers where the audit departs from the smooth shape. The scan works
// in two passes:
//
//  1. bound every piece from below in closed form (pieceBound), with no
//     search;
//  2. price the piece with the lowest bound (searchPiece) to get an
//     achieved energy U, then walk the pieces in breakpoint order,
//     pricing every piece whose bound does not exceed U and keeping the
//     first strictly better result.
//
// A skipped piece's price could only have been more than U, so it could
// neither win nor tie: the result is the same bits as pricing every
// piece. All scan state lives in the instance's retained buffers, so a
// reused instance scans allocation-free. The objective-evaluation tally
// counts the candidates priced plus the latest natural completion the
// scan starts from; pieces the bound rules out count in neither tally.
//
//sdem:hotpath
func (in *instance) overheadScan() (bestL float64, caseIdx int) {
	n := len(in.tasks)
	in.prepTables()
	// At most one piece per breakpoint: n completions and two tails.
	if cap(in.bounds) < n+2 {
		in.bounds = make([]float64, 0, max(n+2, 2*cap(in.bounds)))
	}
	in.evals, in.priced = 0, 0

	bestL, bestE := in.c[n-1], in.evalOverhead(in.c[n-1])

	// Pass 1: bound every piece and note the one with the lowest bound.
	in.bounds = in.bounds[:0]
	first, firstA, firstB := -1, 0.0, 0.0
	w := in.walkPieces()
	for a, b, ok := w.next(); ok; a, b, ok = w.next() {
		lb := in.pieceBound(a, b)
		if first < 0 || lb < in.bounds[first] {
			first, firstA, firstB = len(in.bounds), a, b
		}
		in.bounds = append(in.bounds, lb)
	}

	// Pass 2: price the most promising piece first, then every piece
	// that could still beat the best energy achieved so far.
	var firstL, firstE float64
	achieved := bestE
	if first >= 0 {
		firstL, firstE = in.searchPiece(firstA, firstB)
		if firstE < achieved {
			achieved = firstE
		}
	}
	w = in.walkPieces()
	for k, lb := range in.bounds {
		a, b, _ := w.next()
		if lb > achieved {
			continue
		}
		x, e := firstL, firstE
		if k != first {
			x, e = in.searchPiece(a, b)
		}
		if e < bestE {
			bestL, bestE = x, e
		}
	}
	countNonzero(in.tel, "sdem.solver.cr.objective_evals", in.evals)
	countNonzero(in.tel, "sdem.solver.cr.pieces", in.priced)

	// Identify the winning case index for reporting.
	caseIdx = sort.SearchFloat64s(in.c, bestL-schedule.Tol) + 1
	if caseIdx > n {
		caseIdx = n
	}
	return bestL, caseIdx
}

// searchPiece prices the piece [a, b] at closed-form candidates and
// returns the first strictly cheapest. Away from Tol-wide slivers the
// objective on the piece is the convex g(L) = K + β·S_i·L^(1−λ) + C·L
// (pieceBound), whose minimum over the feasible span [lo, b],
// lo = max(a, capFor(b)), is its stationary point L* clamped into the
// span; lo and b cover a minimum at either end of that span. The
// remaining candidates are the points where the objective can dip below
// g inside a sliver: the piece start a, where a task's alignment flips,
// b−Tol just before the next flip, and d_max−Tol, the first busy length
// whose idle tail is short enough that the audit stops charging it.
// a+Tol is not one: a task whose natural completion a is its deadline
// would stay aligned there and end past that deadline.
func (in *instance) searchPiece(a, b float64) (L, e float64) {
	in.priced++
	_, lstar := in.piece(a, b)
	lo := math.Max(a, in.capFor(b))
	// d_max − Tol rounds to either side of the audit's tail ≤ Tol test;
	// one ulp up puts it on the uncharged side.
	flat := in.horizon - schedule.Tol
	if in.horizon-flat > schedule.Tol {
		flat = math.Nextafter(flat, math.Inf(1))
	}
	cands := [...]float64{numeric.Clamp(lstar, lo, b), lo, b, a, b - schedule.Tol, flat}
	L, e = a, math.Inf(1)
	for k, x := range cands {
		if k > 2 && (x < a || x > b) {
			continue // a sliver point outside this piece
		}
		if ex := in.evalOverhead(x); ex < e {
			L, e = x, ex
		}
	}
	return L, e
}

// pieceBound returns a lower bound on the objective over the piece
// [a, b] without pricing it. Away from Tol-wide slivers (sliverSlack)
// the piece has one aligned set, tasks i..n, and one sleep decision per
// idle tail, so the objective is g(L) = K + β·S_i·L^(1−λ) + C·L: the
// §4.2 case energy. g is convex with stationary point L* (piece), so its
// minimum over the piece's feasible span is at L* clamped into the span.
// The bound is the objective there, less the sliver slack and a
// float-rounding margin.
func (in *instance) pieceBound(a, b float64) float64 {
	_, lstar := in.piece(a, b)
	// capFor is non-increasing in L, so no L below capFor(b)−Tol is
	// feasible anywhere in the piece.
	lo := math.Max(a, in.capFor(b)-schedule.Tol)
	if lo > b {
		return math.Inf(1)
	}
	e := in.energyClosed(numeric.Clamp(lstar, lo, b))
	if math.IsInf(e, 0) || math.IsNaN(e) {
		// An overflowed term bounds nothing: price the piece.
		return math.Inf(-1)
	}
	return e - in.sliverSlack(a, b) - boundRelMargin*math.Abs(e)
}

// boundRelMargin covers the float rounding of energyClosed, a sum of a
// handful of non-negative terms, by a wide factor.
const boundRelMargin = 1e-12

// sliverSlack bounds twice the largest distance between the objective
// and its smooth form g on the piece [a, b] (pieceBound): once for the
// point where the bound is evaluated and once for the point it bounds.
// The two differ only at busy lengths whose aligned set or idle-tail
// branch differs from the piece midpoint's. Breakpoints closer than Tol
// to a piece's start merge into it, so every such L lies within 3·Tol
// of the flip, and:
//   - a task j whose alignment flips in the piece, c_j ∈ [a−Tol, b−Tol),
//     moves its end by at most 3·Tol, at the slope of its energy, at most
//     β(λ−1)·(w_j/(c_j−Tol))^λ + 2α, plus the α·Tol its idle-tail charge
//     can jump at Tol;
//   - when an idle tail can change branch in the piece (d_max − ξ or
//     d_max − Tol in [a, b]), each of up to n cores and the memory is
//     charged at most 2·α·Tol away from the branch's linear form.
func (in *instance) sliverSlack(a, b float64) float64 {
	core, mem := in.sys.Core, in.sys.Memory
	const tol = schedule.Tol
	var d float64
	for j := sort.SearchFloat64s(in.c, a-tol); j < len(in.c) && in.c[j] < b-tol; j++ {
		e := in.c[j] - tol
		if e <= 0 {
			return math.Inf(1)
		}
		speed := in.tasks[j].Workload / e
		d += 3*tol*(core.Beta*(core.Lambda-1)*math.Pow(speed, core.Lambda)+2*core.Static) + core.Static*tol
	}
	if in.tailMayFlip(a, b, core.BreakEven) {
		d += 2 * tol * float64(len(in.tasks)) * core.Static
	}
	if in.tailMayFlip(a, b, mem.BreakEven) {
		d += 2 * tol * mem.Static
	}
	return 2 * d
}

// tailMayFlip reports whether the idle tail d_max − L of a component with
// the given break-even time changes its charging branch for some L in
// [a, b].
func (in *instance) tailMayFlip(a, b, breakEven float64) bool {
	for _, p := range [2]float64{in.horizon - breakEven, in.horizon - schedule.Tol} {
		if p >= a && p <= b {
			return true
		}
	}
	return false
}
