package core

import (
	"cmp"
	"math"
	"slices"

	"sdem/internal/numeric"
	"sdem/internal/power"
	"sdem/internal/task"
)

// LowerBound returns a certified lower bound on the system-wide energy of
// ANY feasible schedule of the task set (unbounded cores, any sleeping
// behaviour). It combines two independently valid bounds:
//
//   - Core bound: task i must spend at least w_i cycles on some core at a
//     speed within [s_fi, s_up]; per-cycle core energy (α + β·s^λ)/s is
//     minimized at the task's critical speed, so
//     E_core ≥ Σ_i w_i·(β·s*^{λ−1} + α/s*) with s* = clamp(s_m, s_fi, s_up).
//
//   - Memory bound: the memory is active whenever any task executes, and
//     task i occupies at least w_i/s_up seconds inside its feasible
//     window. Tasks whose windows are pairwise disjoint can never
//     overlap, so the memory busy time is at least the maximum total
//     minimal execution time over any set of window-disjoint tasks — a
//     weighted interval scheduling problem solved exactly by DP, giving
//     E_mem ≥ α_m·WIS.
//
// Transition energies are non-negative, so they are bounded by zero.
//
//sdem:hotpath
func LowerBound(tasks task.Set, sys power.System) float64 {
	var coreLB float64
	ivs := make([]window, 0, len(tasks))
	for _, t := range tasks {
		if numeric.IsZero(t.Workload, 0) {
			continue
		}
		s := sys.Core.CriticalSpeed(t.FilledSpeed())
		if s <= 0 || math.IsInf(s, 0) {
			continue // degenerate task; contributes nothing to the bound
		}
		coreLB += sys.Core.Dynamic(s) * t.Workload / s
		if sys.Core.Static > 0 {
			coreLB += sys.Core.Static * t.Workload / s
		}
		// Without a speed cap a task's busy time can be arbitrarily
		// small, so only capped platforms contribute to the memory bound.
		if sys.Core.SpeedMax > 0 {
			ivs = append(ivs, window{t.Release, t.Deadline, t.Workload / sys.Core.SpeedMax})
		}
	}
	memLB := sys.Memory.Static * weightedDisjointWindows(ivs)
	return coreLB + memLB
}

// window is a feasible region with its minimal execution time.
type window struct {
	release, deadline, minExec float64
}

// countEndingBy returns the number of leading windows (sorted by
// deadline) whose deadline is ≤ r: a closure-free binary search standing
// in for sort.Search in the DP below.
func countEndingBy(ivs []window, r float64) int {
	lo, hi := 0, len(ivs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ivs[mid].deadline > r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// weightedDisjointWindows solves weighted interval scheduling over the
// feasible windows: the maximum total weight of pairwise-disjoint
// windows. O(n log n).
func weightedDisjointWindows(ivs []window) float64 {
	n := len(ivs)
	if n == 0 {
		return 0
	}
	slices.SortFunc(ivs, func(a, b window) int { return cmp.Compare(a.deadline, b.deadline) })
	opt := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		v := ivs[i-1]
		// p = number of windows ending at or before v.release.
		p := countEndingBy(ivs, v.release)
		take := opt[p] + v.minExec
		opt[i] = math.Max(opt[i-1], take)
	}
	return opt[n]
}
