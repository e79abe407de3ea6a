package commonrelease

import (
	"math"
	"sort"

	"sdem/internal/numeric"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// SolveWithOverhead solves the §7 common-release problem with
// non-negligible mode-transition overhead (ξ ≠ 0 and/or ξ_m ≠ 0).
//
// Tasks not aligned to the memory busy interval run at the constrained
// critical speed s_c of §7; aligned tasks finish together at busy length L.
// The audited energy E(L) is convex between the structural breakpoints —
// the natural completions c_j (where the aligned set changes) and
// d_max − ξ_m, d_max − ξ (where the memory / aligned-core idle tail
// crosses its break-even time, flipping the sleep decision of
// SleepBreakEven accounting). On each such piece E has the §4.2 case
// shape K + β·Σw^λ·L^(1−λ) + C·L, so its closed-form stationary point
// bounds the piece from below; the solver golden-section searches only
// the pieces whose bound does not exceed an energy already achieved, and
// keeps the best. This subsumes every row of the paper's Table 3: the
// candidates Δ = Δ_mi, Δ = ξ and Δ = 0 are all piece boundaries or
// interior minima of some piece.
//
// A non-nil tel counts the golden-section objective evaluations
// (sdem.solver.cr.objective_evals) and the convex pieces searched
// (sdem.solver.cr.pieces); pieces the bound rules out count in neither.
func SolveWithOverhead(tasks task.Set, sys power.System, tel *telemetry.Recorder) (*Solution, error) {
	return solve(power.ModelOverhead, tasks, sys, tel)
}

// overheadHorizon is the §7 maximal interval max_j (d_j − r_j) over the
// absolute task set; the constrained critical speed s_c depends on it.
func overheadHorizon(tasks task.Set) float64 {
	var horizon float64
	for _, t := range tasks {
		horizon = math.Max(horizon, t.Deadline-t.Release)
	}
	return horizon
}

// overheadMode picks the §7 natural-speed rule: a leak-free core never
// benefits from finishing early, so stretching to the filled speed is
// individually optimal; otherwise tasks run at the horizon-constrained
// critical speed s_c.
func overheadMode(sys power.System) naturalMode {
	if numeric.IsZero(sys.Core.Static, 0) {
		return naturalFilled
	}
	return naturalConstrained
}

// capFor is the smallest feasible busy length when the aligned set is
// that of busy length L: tasks i..n are aligned and need w/L ≤ s_up.
func (in *instance) capFor(L float64) float64 {
	i := sort.SearchFloat64s(in.c, L) // first c_j ≥ L
	if in.sys.Core.SpeedMax <= 0 {
		return 0
	}
	return in.sufMaxW[i] / in.sys.Core.SpeedMax
}

// evalOverhead is the golden-section objective: the audited energy of the
// busy-length-L candidate, +Inf outside the feasible region. It prices
// the candidate in closed form (prepOverheadEval's tables) instead of
// building and auditing a schedule — the audit-based energyOf stays as
// the oracle the overhead tests pin the closed form against.
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

// prepOverheadEval fills the prefix/suffix tables energyClosed reads:
// for the first aligned index i, every non-aligned task contributes a
// fixed dynamic + static + idle-tail cost (prefDyn, prefFix), and the
// aligned suffix contributes through Σ w^λ (sufPow). O(n) once per scan,
// into retained buffers.
func (in *instance) prepOverheadEval() {
	n := len(in.tasks)
	core := in.sys.Core
	if cap(in.sufPow) < n+1 {
		//lint:allow hotalloc: the closed-form table backings grow to the high-water instance size once
		in.sufPow = make([]float64, n+1)
		//lint:allow hotalloc: see above
		in.prefDyn = make([]float64, n+1)
		//lint:allow hotalloc: see above
		in.prefFix = make([]float64, n+1)
	}
	in.sufPow, in.prefDyn, in.prefFix = in.sufPow[:n+1], in.prefDyn[:n+1], in.prefFix[:n+1]
	in.sufPow[n] = 0
	for i := n - 1; i >= 0; i-- {
		in.sufPow[i] = in.sufPow[i+1] + math.Pow(in.tasks[i].Workload, core.Lambda)
	}
	in.prefDyn[0], in.prefFix[0] = 0, 0
	for i, t := range in.tasks {
		c := in.c[i]
		in.prefDyn[i+1] = in.prefDyn[i] + core.Beta*math.Pow(t.Workload, core.Lambda)*math.Pow(c, 1-core.Lambda)
		in.prefFix[i+1] = in.prefFix[i] + core.Static*c +
			schedule.SleepBreakEven.GapEnergy(in.horizon-c, core.Static, core.BreakEven)
	}
}

// energyClosed is the audited energy of the busy-length-L candidate in
// closed form: tasks with natural completion ≥ L−Tol align to [0, L]
// (the same boundary buildInto draws), each non-aligned core runs [0,
// c_j] and idles the tail, and the memory is busy exactly [0, L]. Every
// term prices what the Auditor would charge — same gapCost branches,
// same Tol boundary — so it matches energyOf to float rounding.
func (in *instance) energyClosed(L float64) float64 {
	i := sort.SearchFloat64s(in.c, L-schedule.Tol)
	if i == len(in.c) {
		// No aligned task: outside the scan range [c_1·ε, c_n]; fall back
		// to the audited oracle rather than mis-pricing the memory tail.
		return in.energyOf(L)
	}
	core, mem := in.sys.Core, in.sys.Memory
	k := float64(len(in.tasks) - i)
	tail := in.horizon - L
	return in.prefDyn[i] + in.prefFix[i] +
		core.Beta*in.sufPow[i]*math.Pow(L, 1-core.Lambda) +
		k*(core.Static*L+schedule.SleepBreakEven.GapEnergy(tail, core.Static, core.BreakEven)) +
		mem.Static*L + schedule.SleepBreakEven.GapEnergy(tail, mem.Static, mem.BreakEven)
}

// overheadScan minimizes the §7 objective over busy length and returns
// the winner plus its 1-based case index. It cuts the scan range at the
// structural breakpoints into convex pieces and works in two passes:
//
//  1. bound every piece from below in closed form (pieceBound), with no
//     search;
//  2. golden-section search the piece with the lowest bound to get an
//     achieved energy U, then walk the pieces in breakpoint order,
//     searching every piece whose bound does not exceed U and keeping
//     the first strictly better result.
//
// A skipped piece's search could only have returned more than U, so it
// could neither win nor tie: the result is the same bits as searching
// every piece (the test oracle). All scan state lives in the instance's
// retained buffers, so a reused instance scans allocation-free.
//
//sdem:hotpath
func (in *instance) overheadScan() (bestL float64, caseIdx int) {
	n := len(in.tasks)
	in.prepOverheadScan()
	in.evals, in.searched = 0, 0

	bestL, bestE := in.c[n-1], in.evalFn(in.c[n-1])

	// Pass 1: bound every piece and note the one with the lowest bound.
	in.bounds = in.bounds[:0]
	first, firstA, firstB := -1, 0.0, 0.0
	w := in.walkPieces()
	for a, b, ok := w.next(); ok; a, b, ok = w.next() {
		lb := in.pieceBound(a, b)
		if first < 0 || lb < in.bounds[first] {
			first, firstA, firstB = len(in.bounds), a, b
		}
		//lint:allow hotalloc: appends within the bound backing's capacity
		in.bounds = append(in.bounds, lb)
	}

	// Pass 2: search the most promising piece first, then every piece
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
	countNonzero(in.tel, "sdem.solver.cr.pieces", in.searched)

	// Identify the winning case index for reporting.
	caseIdx = sort.SearchFloat64s(in.c, bestL-schedule.Tol) + 1
	if caseIdx > n {
		caseIdx = n
	}
	return bestL, caseIdx
}

// pieceWalk steps through the §7 scan's convex pieces in breakpoint
// order. The breakpoints are the natural completions (already sorted)
// merged with the idle-tail breakpoints; a piece runs from the previous
// piece's end (first, the smallest feasible busy length) to the next
// breakpoint more than Tol beyond it.
type pieceWalk struct {
	c     []float64
	tails [2]float64
	nt    int
	j, t  int
	prev  float64
}

// walkPieces starts a walk over the instance's pieces. The idle-tail
// breakpoints are the busy lengths inside the scan range (0, c_n) where
// the memory's or an aligned core's idle tail d_max − L reaches its
// break-even time.
func (in *instance) walkPieces() pieceWalk {
	w := pieceWalk{c: in.c, prev: math.Max(in.capFor(in.c[0]), in.c[0]*relTol)}
	for _, p := range [2]float64{in.horizon - in.sys.Memory.BreakEven, in.horizon - in.sys.Core.BreakEven} {
		if p > 0 && p < in.c[len(in.c)-1] {
			w.tails[w.nt] = p
			w.nt++
		}
	}
	if w.nt == 2 && w.tails[1] < w.tails[0] {
		w.tails[0], w.tails[1] = w.tails[1], w.tails[0]
	}
	return w
}

// next returns the next piece [a, b], or ok == false after the last.
func (w *pieceWalk) next() (a, b float64, ok bool) {
	for w.j < len(w.c) || w.t < w.nt {
		var p float64
		if w.t < w.nt && (w.j == len(w.c) || w.tails[w.t] < w.c[w.j]) {
			p, w.t = w.tails[w.t], w.t+1
		} else {
			p, w.j = w.c[w.j], w.j+1
		}
		if p > w.prev+schedule.Tol {
			a, w.prev = w.prev, p
			return a, p, true
		}
	}
	return 0, 0, false
}

// prepOverheadScan fills the scan's retained tables: room for one
// bound per piece, the suffix maxima of workloads for the speed cap, the
// closed-form objective tables, and the bound objective method value.
func (in *instance) prepOverheadScan() {
	n := len(in.tasks)
	// At most one piece per breakpoint: n completions and two tails.
	if cap(in.bounds) < n+2 {
		//lint:allow hotalloc: the bound backing grows geometrically to the high-water instance size
		in.bounds = make([]float64, 0, max(n+2, 2*cap(in.bounds)))
	}
	// Suffix maxima of workloads for the speed cap: when L ∈
	// (c_{i−1}, c_i], tasks i..n are aligned and need w/L ≤ s_up.
	if cap(in.sufMaxW) < n+1 {
		//lint:allow hotalloc: the suffix-maxima backing grows to the high-water instance size once
		in.sufMaxW = make([]float64, n+1)
	}
	in.sufMaxW = in.sufMaxW[:n+1]
	in.sufMaxW[n] = 0
	for i := n - 1; i >= 0; i-- {
		in.sufMaxW[i] = math.Max(in.sufMaxW[i+1], in.tasks[i].Workload)
	}

	in.prepOverheadEval()
	if in.evalFn == nil {
		//lint:allow hotalloc: the objective method value is bound once per instance and reused every solve
		in.evalFn = in.evalOverhead
	}
}

// searchPiece golden-section searches the piece [a, b] of the objective.
func (in *instance) searchPiece(a, b float64) (L, e float64) {
	in.searched++
	return numeric.MinimizeConvex(in.evalFn, a, b, numeric.DefaultTol)
}

// pieceBound returns a lower bound on the objective over the piece
// [a, b] without searching it. Away from Tol-wide slivers (sliverSlack)
// the piece has one aligned set, tasks i..n, and one sleep decision per
// idle tail, so the objective is g(L) = K + β·S_i·L^(1−λ) + C·L: the
// §4.2 case energy, where C collects the static power of every component
// whose idle-tail charge does not grow with the tail. g is convex with
// stationary point L* = (β(λ−1)·S_i / C)^(1/λ), so its minimum over the
// piece's feasible span is at L* clamped into the span. The bound is
// the objective there, less the sliver slack and a float-rounding
// margin.
func (in *instance) pieceBound(a, b float64) float64 {
	core, mem := in.sys.Core, in.sys.Memory
	mid := a + (b-a)/2
	i := sort.SearchFloat64s(in.c, mid-schedule.Tol)
	tail := in.horizon - mid
	var C float64
	if tailChargeFixed(tail, core.BreakEven) {
		C += float64(len(in.tasks)-i) * core.Static
	}
	if tailChargeFixed(tail, mem.BreakEven) {
		C += mem.Static
	}
	// capFor is non-increasing in L, so no L below capFor(b)−Tol is
	// feasible anywhere in the piece.
	lo := math.Max(a, in.capFor(b)-schedule.Tol)
	if lo > b {
		return math.Inf(1)
	}
	L := b
	if C > 0 {
		L = numeric.Clamp(math.Pow(core.Beta*(core.Lambda-1)*in.sufPow[i]/C, 1/core.Lambda), lo, b)
	}
	e := in.energyClosed(L)
	if math.IsInf(e, 0) || math.IsNaN(e) {
		// An overflowed term bounds nothing: search the piece.
		return math.Inf(-1)
	}
	return e - in.sliverSlack(a, b) - boundRelMargin*math.Abs(e)
}

// boundRelMargin covers the float rounding of energyClosed, a sum of a
// handful of non-negative terms, by a wide factor.
const boundRelMargin = 1e-12

// tailChargeFixed reports whether an idle tail of the given length costs
// the same for every nearby busy length: the component sleeps (tail ≥ ξ,
// a flat α·ξ) or has no gap at all (tail ≤ Tol). Only then does its
// static power while busy enter the marginal cost C of a longer busy
// length; an idle-active tail trades busy time for idle time at the same
// static power.
func tailChargeFixed(tail, breakEven float64) bool {
	return tail >= breakEven || tail <= schedule.Tol
}

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
