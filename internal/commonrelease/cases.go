package commonrelease

import (
	"math"
	"sort"

	"sdem/internal/numeric"
	"sdem/internal/schedule"
)

// The case engine shared by §4 and §7. Between consecutive structural
// breakpoints of the busy length L — the natural completions c_j, where
// the aligned set changes, and (§7 only) the busy lengths where an idle
// tail d_max − L crosses its break-even time — the energy is
//
//	K + β·S_i·L^(1−λ) + C·L
//
// with tasks i..n aligned and S_i = Σ_{j≥i} w_j^λ: convex, with the
// closed-form stationary point of Eq. (8). Without break-even times the
// pieces are exactly the cases of Theorems 2 and 3, so §4 prices each
// piece at its clamped stationary point (caseScan), while §7 uses the
// same point as a lower bound that decides which pieces to price, and
// as the first of the few candidates each priced piece is evaluated at
// (overheadScan).

// prepTables fills the tables capFor, piece and energyClosed read, each
// indexed by the first aligned task i: the suffix sums S_i of w^λ and
// suffix maxima of w over the aligned tasks, and the prefix sums of the
// non-aligned tasks' fixed dynamic cost (prefDyn) and static plus
// idle-tail cost (prefFix). O(n) once per solve, into one retained
// backing.
func (in *instance) prepTables() {
	n := len(in.tasks)
	core := in.sys.Core
	if cap(in.tables) < 4*(n+1) {
		in.tables = make([]float64, 4*(n+1))
	}
	t := in.tables[:4*(n+1)]
	in.sufPow, in.sufMaxW, in.prefDyn, in.prefFix = t[:n+1], t[n+1:2*(n+1)], t[2*(n+1):3*(n+1)], t[3*(n+1):]
	in.sufPow[n], in.sufMaxW[n] = 0, 0
	for i := n - 1; i >= 0; i-- {
		w := in.tasks[i].Workload
		in.sufPow[i] = in.sufPow[i+1] + core.PowLambda(w)
		in.sufMaxW[i] = math.Max(in.sufMaxW[i+1], w)
	}
	in.prefDyn[0], in.prefFix[0] = 0, 0
	for i, tk := range in.tasks {
		c := in.c[i]
		in.prefDyn[i+1] = in.prefDyn[i] + core.Beta*core.PowLambda(tk.Workload)*core.PowOneMinusLambda(c)
		in.prefFix[i+1] = in.prefFix[i] + core.Static*c +
			schedule.SleepBreakEven.GapEnergy(in.horizon-c, core.Static, core.BreakEven)
	}
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

// piece returns the aligned index i of the piece [a, b] — tasks i..n
// align at its midpoint — and the stationary point
// L* = (β(λ−1)·S_i / C)^(1/λ) of its energy K + β·S_i·L^(1−λ) + C·L, or
// +Inf when C = 0 (stretching is free). C collects the static power of
// every component whose idle-tail charge does not grow with the tail.
func (in *instance) piece(a, b float64) (i int, lstar float64) {
	core, mem := in.sys.Core, in.sys.Memory
	mid := a + (b-a)/2
	i = sort.SearchFloat64s(in.c, mid-schedule.Tol)
	tail := in.horizon - mid
	var C float64
	if tailChargeFixed(tail, core.BreakEven) {
		C += float64(len(in.tasks)-i) * core.Static
	}
	if tailChargeFixed(tail, mem.BreakEven) {
		C += mem.Static
	}
	if C > 0 {
		return i, math.Pow(core.Beta*(core.Lambda-1)*in.sufPow[i]/C, 1/core.Lambda)
	}
	return i, math.Inf(1)
}

// tailChargeFixed reports whether an idle tail of the given length costs
// the same for every nearby busy length: the component sleeps (tail ≥ ξ,
// a flat α·ξ) or has no gap at all (tail ≤ Tol). Only then does its
// static power while busy enter the marginal cost C of a longer busy
// length; an idle-active tail trades busy time for idle time at the same
// static power.
func tailChargeFixed(tail, breakEven float64) bool {
	return tail >= breakEven || tail <= schedule.Tol
}

// energyClosed is the audited energy of the busy-length-L candidate in
// closed form, for L ≤ c_n: tasks with natural completion ≥ L−Tol align
// to [0, L] (alignedEnd's rule, found by index here), each non-aligned core runs
// [0, c_j] and idles the tail, and the memory is busy exactly [0, L].
// Every term prices what the Auditor would charge — same gapCost
// branches, same Tol boundary — so it matches the audit of build(L) to
// float rounding.
func (in *instance) energyClosed(L float64) float64 {
	i := sort.SearchFloat64s(in.c, L-schedule.Tol)
	core, mem := in.sys.Core, in.sys.Memory
	k := float64(len(in.tasks) - i)
	tail := in.horizon - L
	return in.prefDyn[i] + in.prefFix[i] +
		core.Beta*in.sufPow[i]*core.PowOneMinusLambda(L) +
		k*(core.Static*L+schedule.SleepBreakEven.GapEnergy(tail, core.Static, core.BreakEven)) +
		mem.Static*L + schedule.SleepBreakEven.GapEnergy(tail, mem.Static, mem.BreakEven)
}

// pieceWalk steps through the convex pieces in breakpoint order. The
// breakpoints are the natural completions (already sorted) merged with
// the idle-tail breakpoints; a piece runs from the previous piece's end
// (first, the walk's start) to the next breakpoint more than Tol beyond
// it.
type pieceWalk struct {
	c     []float64
	tails [2]float64
	nt    int
	j, t  int
	prev  float64
}

// walkPieces starts a walk over the §7 pieces from the smallest feasible
// busy length. The idle-tail breakpoints are the busy lengths inside the
// scan range (0, c_n) where the memory's or an aligned core's idle tail
// d_max − L reaches its break-even time.
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

// caseScan is the §4 scan that Theorems 2 and 3 prove optimal: it prices
// every case at its stationary point clamped into the case's feasible
// span and returns the first strictly cheapest, with its 1-based case
// index. The §4 walk has no idle-tail breakpoints, so its pieces are the
// cases, and it starts at c_1·ε rather than at the speed cap, so every
// case is visited and one the cap excludes entirely counts as
// infeasible.
func (in *instance) caseScan() (bestL float64, caseIdx int) {
	in.prepTables()
	bestE := math.Inf(1)
	var scans, infeasible, clamps int64
	w := pieceWalk{c: in.c, prev: in.c[0] * relTol}
	for a, b, ok := w.next(); ok; a, b, ok = w.next() {
		scans++
		i, lstar := in.piece(a, b)
		lo := math.Max(a, in.capFor(b))
		if lo > b+schedule.Tol {
			infeasible++
			continue
		}
		if lstar < lo || lstar > b {
			clamps++
		}
		L := numeric.Clamp(lstar, lo, b)
		if e := in.energyClosed(L); e < bestE {
			bestL, bestE, caseIdx = L, e, i+1
		}
	}
	countNonzero(in.tel, "sdem.solver.cr.case_scans", scans)
	countNonzero(in.tel, "sdem.solver.cr.infeasible_cases", infeasible)
	countNonzero(in.tel, "sdem.solver.cr.clamps", clamps)
	return bestL, caseIdx
}
