package agreeable

import (
	"math"

	"sdem/internal/power"
	"sdem/internal/task"
)

// BlockCostAlgorithm1 computes the §5.2 (α ≠ 0) local optimal energy of a
// deadline-sorted, positive-workload task subset scheduled in one busy
// interval by the paper's literal Algorithm 1: for every (i, j) boundary
// pair, iterate the five steps —
//
//	1: minimize Eq. (15) assuming every remaining task aligns with the
//	   busy interval;
//	2: accelerate tasks slower than their critical speed s₀ to s₀;
//	3: evict them and repeat until no task runs below s₀;
//	4: re-minimize over only the tasks faster than the
//	   memory-associated critical speed s₁;
//	5: prolong the others to the new busy interval, evicting any that
//	   fall below s₀; repeat 4–5 until no task exceeds s₁.
//
// It exists as an independent cross-check of the package's convex block
// solver (Theorem 4 proves both converge to the same optimum).
func BlockCostAlgorithm1(tasks task.Set, sys power.System) float64 {
	n := len(tasks)
	if n == 0 {
		return 0
	}
	core, mem := sys.Core, sys.Memory
	r := make([]float64, n+2)
	d := make([]float64, n+1)
	w := make([]float64, n+1)
	for k := 1; k <= n; k++ {
		r[k] = tasks[k-1].Release
		d[k] = tasks[k-1].Deadline
		w[k] = tasks[k-1].Workload
	}
	r[n+1] = math.Inf(1)

	// Per-task critical speeds against the full feasible region.
	s0 := make([]float64, n+1)
	s1 := make([]float64, n+1)
	frozenCost := make([]float64, n+1)
	for k := 1; k <= n; k++ {
		filled := w[k] / (d[k] - r[k])
		s0[k] = core.CriticalSpeed(filled)
		s1[k] = core.MemoryCriticalSpeed(mem, filled)
		frozenCost[k] = core.Dynamic(s0[k])*w[k]/s0[k] + core.Static*w[k]/s0[k]
	}

	// alignedLen is task k's execution length under pair (i, j) at
	// (Δ1, Δ2) when aligned with the busy interval; alignedStart is its
	// execution start.
	alignedLen := func(i, j, k int, d1, d2 float64) float64 {
		switch {
		case k <= i && k <= n-j:
			return d[k] - d1 // case 1: [s', d_k]
		case k > i && k <= n-j:
			return d[k] - r[k] // case 2: [r_k, d_k]
		case k <= i && k > n-j:
			return d[n] - d2 - d1 // case 3: [s', e']
		default:
			return d[n] - d2 - r[k] // case 4: [r_k, e']
		}
	}
	alignedStart := func(i, j, k int, d1 float64) float64 {
		if k <= i {
			return d1 // cases 1 and 3 start at s'
		}
		return r[k] // cases 2 and 4 start at r_k
	}

	best := math.Inf(1)
	for i := 1; i <= n; i++ {
		x0 := r[i]
		x1 := math.Min(r[i+1], d[1])
		if x1 < x0 {
			continue
		}
		for j := 1; j <= n; j++ {
			y0 := d[n] - d[n-j+1]
			hiEnd := r[n]
			if n-j >= 1 {
				hiEnd = math.Max(d[n-j], r[n])
			}
			y1 := d[n] - hiEnd
			if y1 < y0 {
				continue
			}
			if e := algorithm1Pair(core, mem, i, j, n, d[n], w, s0, s1, frozenCost,
				alignedLen, alignedStart,
				Box{X0: x0, X1: x1, Y0: y0, Y1: y1}); e < best {
				best = e
			}
		}
	}
	return best
}

// algorithm1Pair runs the five-step iteration for one (i, j) pair and
// returns the block energy, or +Inf when no feasible alignment exists.
func algorithm1Pair(
	core power.Core, mem power.Memory,
	i, j, n int, dn float64,
	w, s0, s1, frozenCost []float64,
	alignedLen func(i, j, k int, d1, d2 float64) float64,
	alignedStart func(i, j, k int, d1 float64) float64,
	box Box,
) float64 {
	const tol = 1e-9
	aligned := make([]bool, n+1)
	for k := 1; k <= n; k++ {
		aligned[k] = true
	}
	var frozen float64 // accumulated cost of evicted tasks

	// objective evaluates Eq. (15) over a chosen subset of the aligned
	// tasks (all of them in steps 1–3, only the fast ones in step 4).
	objective := func(include func(k int) bool) func(d1, d2 float64) float64 {
		return func(d1, d2 float64) float64 {
			busy := dn - d1 - d2 // e' − s', Eq. (15)'s memory span
			if busy <= 0 {
				return math.Inf(1)
			}
			e := mem.Static * busy
			counted := false
			for k := 1; k <= n; k++ {
				if !aligned[k] || !include(k) {
					continue
				}
				length := alignedLen(i, j, k, d1, d2)
				if length <= 0 {
					return math.Inf(1)
				}
				speed := w[k] / length
				if core.SpeedMax > 0 && speed > core.SpeedMax*(1+relTol) {
					return math.Inf(1)
				}
				e += core.Dynamic(speed)*length + core.Static*length
				counted = true
			}
			if !counted {
				return math.Inf(1)
			}
			return e
		}
	}
	all := func(int) bool { return true }

	var d1, d2 float64
	// Steps 1–3: iterate alignment minimization and s₀ eviction.
	for iter := 0; iter <= n; iter++ {
		anyAligned := false
		for k := 1; k <= n; k++ {
			if aligned[k] {
				anyAligned = true
			}
		}
		if !anyAligned {
			// Everything runs at s₀; the memory still covers the union
			// of the frozen executions.
			return frozen + mem.Static*frozenUnion(i, j, n, d1, w, s0, aligned, alignedStart)
		}
		var val float64
		d1, d2, val = MinimizeConvex2D(objective(all), box, relTol/100)
		if math.IsInf(val, 1) {
			return math.Inf(1)
		}
		evicted := false
		for k := 1; k <= n; k++ {
			if !aligned[k] {
				continue
			}
			speed := w[k] / alignedLen(i, j, k, d1, d2)
			if speed < s0[k]*(1-tol) {
				aligned[k] = false
				frozen += frozenCost[k]
				evicted = true
			}
		}
		if !evicted {
			break
		}
	}

	// Steps 4–5: while some aligned task exceeds s₁, re-optimize for the
	// fast set and prolong the others.
	for iter := 0; iter <= n; iter++ {
		fast := make([]bool, n+1)
		anyFast := false
		for k := 1; k <= n; k++ {
			if !aligned[k] {
				continue
			}
			if w[k]/alignedLen(i, j, k, d1, d2) > s1[k]*(1+tol) {
				fast[k] = true
				anyFast = true
			}
		}
		if !anyFast {
			break
		}
		nd1, nd2, val := MinimizeConvex2D(objective(func(k int) bool { return fast[k] }), box, relTol/100)
		if math.IsInf(val, 1) {
			break
		}
		if math.Abs(nd1-d1) < relTol/1000 && math.Abs(nd2-d2) < relTol/1000 {
			break // converged at a boundary: Lemma 5's quit condition
		}
		d1, d2 = nd1, nd2
		// Step 5: the prolonged interval may push slow tasks below s₀.
		for k := 1; k <= n; k++ {
			if !aligned[k] {
				continue
			}
			if w[k]/alignedLen(i, j, k, d1, d2) < s0[k]*(1-tol) {
				aligned[k] = false
				frozen += frozenCost[k]
			}
		}
	}

	// Final energy at (d1, d2). The memory must cover the busy interval
	// AND every frozen (Type-I) execution — Lemma 5 guarantees coverage
	// along the paper's iteration, but a fresh per-iteration optimum can
	// shrink below a frozen run, so the union is charged explicitly.
	e := frozen
	ivs := make([]schedIv, 0, n)
	any := false
	for k := 1; k <= n; k++ {
		if aligned[k] {
			any = true
			length := alignedLen(i, j, k, d1, d2)
			if length <= 0 {
				return math.Inf(1)
			}
			speed := w[k] / length
			if core.SpeedMax > 0 && speed > core.SpeedMax*(1+relTol) {
				return math.Inf(1)
			}
			e += core.Dynamic(speed)*length + core.Static*length
			start := alignedStart(i, j, k, d1)
			ivs = append(ivs, schedIv{start, start + length})
		} else {
			start := alignedStart(i, j, k, d1)
			ivs = append(ivs, schedIv{start, start + w[k]/s0[k]})
		}
	}
	_ = any
	e += mem.Static * spanLen(ivs)
	return e
}

// schedIv is a closed execution interval used for block-span accounting.
type schedIv struct{ a, b float64 }

// spanLen returns the length of the smallest interval covering all
// executions — the block's single contiguous memory busy interval.
func spanLen(ivs []schedIv) float64 {
	if len(ivs) == 0 {
		return 0
	}
	lo, hi := ivs[0].a, ivs[0].b
	for _, iv := range ivs[1:] {
		lo = math.Min(lo, iv.a)
		hi = math.Max(hi, iv.b)
	}
	return hi - lo
}

// frozenUnion returns the block span of the frozen executions only.
func frozenUnion(i, j, n int, d1 float64, w, s0 []float64, aligned []bool, alignedStart func(i, j, k int, d1 float64) float64) float64 {
	ivs := make([]schedIv, 0, n)
	for k := 1; k <= n; k++ {
		if aligned[k] {
			continue
		}
		start := alignedStart(i, j, k, d1)
		ivs = append(ivs, schedIv{start, start + w[k]/s0[k]})
	}
	return spanLen(ivs)
}
