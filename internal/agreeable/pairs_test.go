package agreeable

import (
	"math"

	"sdem/internal/power"
	"sdem/internal/task"
)

// BlockCostPairs computes the §5.1 (α = 0) local optimal energy of a task
// subset scheduled in a single busy interval by the paper's literal
// (i, j)-pair enumeration, evaluating Eqs. (12), (13) and (14) directly.
//
// It exists as an independent cross-check of the package's convex
// block solver: both must agree on every agreeable subset. tasks must be
// deadline-sorted with positive workloads.
func BlockCostPairs(tasks task.Set, sys power.System) float64 {
	n := len(tasks)
	if n == 0 {
		return 0
	}
	alphaM := sys.Memory.Static
	beta, lambda := sys.Core.Beta, sys.Core.Lambda
	r := make([]float64, n+2) // 1-based; r[n+1] sentinel
	d := make([]float64, n+1)
	w := make([]float64, n+1)
	for k := 1; k <= n; k++ {
		r[k] = tasks[k-1].Release
		d[k] = tasks[k-1].Deadline
		w[k] = tasks[k-1].Workload
	}
	r[n+1] = math.Inf(1)

	// term is one dynamic-energy term β·w^λ·len^{1−λ}, +Inf when the
	// window is too short for the speed cap.
	term := func(wk, length float64) float64 {
		if length <= 0 {
			return math.Inf(1)
		}
		if sys.Core.SpeedMax > 0 && wk/length > sys.Core.SpeedMax*(1+relTol/1000) {
			return math.Inf(1)
		}
		return beta * math.Pow(wk, lambda) * math.Pow(length, 1-lambda)
	}

	// energy evaluates E_{i,j}(Δ1, Δ2) per Eq. (12)/(13)/(14): busy
	// interval [s', e'] = [Δ1, d_n − Δ2]; tasks 1..i start at s'; tasks
	// n−j+1..n end at e'; the middle runs filled (i < n−j) or spans the
	// whole busy interval (i > n−j).
	energy := func(i, j int, d1, d2 float64) float64 {
		sPrime := d1
		ePrime := d[n] - d2
		if ePrime <= sPrime {
			return math.Inf(1)
		}
		e := alphaM * (ePrime - sPrime)
		switch {
		case i < n-j:
			for k := 1; k <= i; k++ {
				e += term(w[k], d[k]-sPrime)
			}
			for k := i + 1; k <= n-j; k++ {
				e += term(w[k], d[k]-r[k])
			}
			for k := n - j + 1; k <= n; k++ {
				e += term(w[k], ePrime-r[k])
			}
		case i > n-j:
			for k := 1; k <= n-j; k++ {
				e += term(w[k], d[k]-sPrime)
			}
			for k := n - j + 1; k <= i; k++ {
				e += term(w[k], ePrime-sPrime)
			}
			for k := i + 1; k <= n; k++ {
				e += term(w[k], ePrime-r[k])
			}
		default: // i == n−j
			for k := 1; k <= i; k++ {
				e += term(w[k], d[k]-sPrime)
			}
			for k := i + 1; k <= n; k++ {
				e += term(w[k], ePrime-r[k])
			}
		}
		return e
	}

	best := math.Inf(1)
	for i := 1; i <= n; i++ {
		// s' ∈ [r_i, r_{i+1}] capped by d_1 (the busy interval must start
		// no later than the first deadline).
		x0 := r[i]
		x1 := math.Min(r[i+1], d[1])
		if x1 < x0 {
			continue
		}
		for j := 1; j <= n; j++ {
			// Δ2 ∈ [d_n − d_{n−j+1}, d_n − d_{n−j}] (d_0 treated as r_n:
			// the busy interval must end no earlier than the last
			// release).
			y0 := d[n] - d[n-j+1]
			hiEnd := r[n]
			if n-j >= 1 {
				hiEnd = math.Max(d[n-j], r[n])
			}
			y1 := d[n] - hiEnd
			if y1 < y0 {
				continue
			}
			_, _, v := MinimizeConvex2D(func(x, y float64) float64 {
				return energy(i, j, x, y)
			}, Box{X0: x0, X1: x1, Y0: y0, Y1: y1}, relTol/1000)
			if v < best {
				best = v
			}
		}
	}
	return best
}
