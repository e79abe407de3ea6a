// Package partition implements the bounded-core SDEM substrate behind the
// paper's NP-hardness result (Theorem 1): tasks with a common release time
// and common deadline must be packed onto C < n cores, every core shares
// one busy interval [0, L], and the system energy
//
//	E(L) = β·Σ_c (W_c/L)^λ·L + C_used·α·L + α_m·L
//
// is minimized by balancing the per-core workload sums W_c (the PARTITION
// reduction) and choosing L by the closed forms of Eqs. (2) and (3).
//
// The package provides the closed forms, an exact exponential partitioner
// for small instances, and the LPT (longest processing time) heuristic for
// larger ones.
package partition

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sdem/internal/numeric"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
)

// relTol is the package's relative feasibility tolerance for speed-cap and
// deadline checks. It matches schedule.Tol (1e-9) by value; stated here so
// every partition-side comparison shares one knob.
const relTol = 1e-9

// searchFloor scales the smallest busy length the L-search will bracket,
// as a fraction of the horizon. It is a search-bracket floor, not a
// comparison tolerance.
const searchFloor = 1e-6

// Assignment maps each task index to a core.
type Assignment []int

// Result is a bounded-core solution.
type Result struct {
	// Assignment[i] is the core of the i-th input task.
	Assignment Assignment
	// Sums are the per-core workload totals W_c.
	Sums []float64
	// BusyLen is the optimal shared busy interval length L (Eq. 2,
	// clamped to the deadline and the speed cap).
	BusyLen float64
	// Energy is the audited energy of Schedule.
	Energy float64
	// Schedule packs each core's tasks back-to-back in [0, L] at speed
	// W_c/L.
	Schedule *schedule.Schedule
}

// OptimalBusyLength returns the busy length minimizing E(L) for the given
// per-core workload sums (Eq. 2 generalized to C cores and non-zero core
// static power), clamped to [maxW/s_up, deadline]. usedCores is the number
// of cores with positive workload.
func OptimalBusyLength(sums []float64, sys power.System, deadline float64) (float64, error) {
	core, mem := sys.Core, sys.Memory
	var sumPow, maxW float64
	used := 0
	for _, w := range sums {
		if w < 0 {
			return 0, fmt.Errorf("partition: negative workload sum %g", w)
		}
		if w > 0 {
			used++
		}
		sumPow += math.Pow(w, core.Lambda)
		maxW = math.Max(maxW, w)
	}
	if numeric.IsZero(sumPow, 0) {
		return 0, nil
	}
	denom := float64(used)*core.Static + mem.Static
	var L float64
	if denom > 0 {
		L = math.Pow(core.Beta*(core.Lambda-1)*sumPow/denom, 1/core.Lambda)
	} else {
		L = deadline
	}
	if L > deadline {
		L = deadline
	}
	if core.SpeedMax > 0 {
		lmin := maxW / core.SpeedMax
		if lmin > deadline*(1+relTol) {
			return 0, errors.New("partition: infeasible even at s_up")
		}
		L = math.Max(L, math.Min(lmin, deadline))
	}
	return L, nil
}

// costOf is the partition objective Σ_c W_c^λ — minimizing it minimizes
// the system energy for any fixed L, and the minimizer is the most
// balanced partition.
func costOf(sums []float64, lambda float64) float64 {
	var s float64
	for _, w := range sums {
		s += math.Pow(w, lambda)
	}
	return s
}

// Exact finds the assignment minimizing Σ_c W_c^λ by exhaustive search
// (C^(n−1) states with symmetry pruning on the first task). It is the
// PARTITION oracle of Theorem 1 and is exponential by necessity; n is
// capped at 24.
func Exact(workloads []float64, cores int, lambda float64) (Assignment, []float64, error) {
	n := len(workloads)
	if cores <= 0 {
		return nil, nil, errors.New("partition: need at least one core")
	}
	if n > 24 {
		return nil, nil, fmt.Errorf("partition: exact search capped at 24 tasks, got %d", n)
	}
	best := math.Inf(1)
	bestAsg := make(Assignment, n)
	asg := make(Assignment, n)
	sums := make([]float64, cores)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if c := costOf(sums, lambda); c < best {
				best = c
				copy(bestAsg, asg)
			}
			return
		}
		// Symmetry pruning: only try cores 0..(max used so far)+1.
		maxCore := 0
		for j := 0; j < i; j++ {
			if asg[j]+1 > maxCore {
				maxCore = asg[j] + 1
			}
		}
		if maxCore >= cores {
			maxCore = cores - 1
		}
		for c := 0; c <= maxCore; c++ {
			asg[i] = c
			sums[c] += workloads[i]
			rec(i + 1)
			sums[c] -= workloads[i]
		}
	}
	if n > 0 {
		rec(0)
	}
	bestSums := make([]float64, cores)
	for i, c := range bestAsg {
		bestSums[c] += workloads[i]
	}
	return bestAsg, bestSums, nil
}

// LPT assigns workloads to cores by the longest-processing-time greedy
// rule: sort descending, place each on the currently lightest core. A
// classic 4/3-style makespan heuristic that also balances Σ W_c^λ well.
func LPT(workloads []float64, cores int) (Assignment, []float64, error) {
	if cores <= 0 {
		return nil, nil, errors.New("partition: need at least one core")
	}
	n := len(workloads)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return workloads[order[a]] > workloads[order[b]] })
	asg := make(Assignment, n)
	sums := make([]float64, cores)
	for _, i := range order {
		light := 0
		for c := 1; c < cores; c++ {
			if sums[c] < sums[light] {
				light = c
			}
		}
		asg[i] = light
		sums[light] += workloads[i]
	}
	return asg, sums, nil
}

// Solve schedules a common-release common-deadline task set on a bounded
// number of cores: partition (exact for n ≤ 16, LPT otherwise or when
// exact is false), then the optimal shared busy interval.
func Solve(tasks task.Set, sys power.System, exact bool) (*Result, error) {
	if err := tasks.Validate(); err != nil {
		return nil, err
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if sys.Cores <= 0 {
		return nil, errors.New("partition: system must declare a bounded core count")
	}
	if len(tasks) == 0 {
		return &Result{Schedule: schedule.New(sys.Cores, 0, 0)}, nil
	}
	if tasks.Classify() != task.ModelCommonDeadline {
		return nil, errors.New("partition: bounded-core solver requires common release and deadline")
	}
	release := tasks[0].Release
	deadline := tasks[0].Deadline - release
	ws := tasks.Workloads()

	var (
		asg  Assignment
		sums []float64
		err  error
	)
	if exact && len(tasks) <= 16 {
		asg, sums, err = Exact(ws, sys.Cores, sys.Core.Lambda)
	} else {
		asg, sums, err = LPT(ws, sys.Cores)
	}
	if err != nil {
		return nil, err
	}
	L, err := OptimalBusyLength(sums, sys, deadline)
	if err != nil {
		return nil, err
	}

	s := schedule.New(sys.Cores, release, tasks[0].Deadline)
	cursor := make([]float64, sys.Cores)
	for i, t := range tasks {
		if numeric.IsZero(t.Workload, 0) {
			continue
		}
		c := asg[i]
		speed := sums[c] / L
		dur := t.Workload / speed
		s.Add(c, schedule.Segment{
			TaskID: t.ID,
			Start:  release + cursor[c],
			End:    release + cursor[c] + dur,
			Speed:  speed,
		})
		cursor[c] += dur
	}
	s.Normalize()
	return &Result{
		Assignment: asg,
		Sums:       sums,
		BusyLen:    L,
		Energy:     schedule.Audit(s, sys).Total(),
		Schedule:   s,
	}, nil
}
