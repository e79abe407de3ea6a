package commonrelease

import (
	"fmt"
	"math"
	"sort"

	"sdem/internal/numeric"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
)

// SolveHetero solves the §4.2 common-release problem on heterogeneous
// cores, the extension noted at the end of §4: task i executes on a core
// with its own power model cores[i] (same λ across cores, different α and
// β allowed). Each task's critical speed derives from its own core, and
// the per-case energy sums the dynamic terms of the aligned cores
// separately:
//
//	E_i(L) = (Σ_{aligned} α_c + α_m)·L + Σ_{aligned} β_c·w_c^λ·L^{1−λ} + const
//
// which stays convex in the busy length L, so the same case scan applies
// with per-case suffix sums.
func SolveHetero(tasks task.Set, cores []power.Core, mem power.Memory) (*Solution, error) {
	if err := tasks.Validate(); err != nil {
		return nil, err
	}
	if len(cores) != len(tasks) {
		return nil, fmt.Errorf("commonrelease: %d tasks but %d core models", len(tasks), len(cores))
	}
	if err := mem.Validate(); err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		s := schedule.New(0, 0, 0)
		return &Solution{Schedule: s}, nil
	}
	if !tasks.IsCommonRelease() {
		return nil, ErrNotCommonRelease
	}
	lambda := cores[0].Lambda
	for i, c := range cores {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("commonrelease: core %d: %w", i, err)
		}
		//lint:allow floatcmp: the heterogeneous closed form requires a literally common exponent λ
		if c.Lambda != lambda {
			return nil, fmt.Errorf("commonrelease: core %d has λ=%g, want the common %g", i, c.Lambda, lambda)
		}
	}

	release := tasks[0].Release
	type item struct {
		t    task.Task
		core power.Core
		c    float64 // natural completion at the task's own critical speed
	}
	var items []item
	var horizon float64
	for i, t := range tasks {
		t.Release -= release
		t.Deadline -= release
		horizon = math.Max(horizon, t.Deadline)
		if numeric.IsZero(t.Workload, 0) {
			continue
		}
		filled := t.FilledSpeed()
		if cores[i].SpeedMax > 0 && filled > cores[i].SpeedMax*(1+relTol) {
			return nil, fmt.Errorf("commonrelease: task %d infeasible on its core even at s_up: %w", t.ID, schedule.ErrInfeasible)
		}
		s0 := cores[i].CriticalSpeed(filled)
		items = append(items, item{t: t, core: cores[i], c: t.Workload / s0})
	}
	if len(items) == 0 {
		s := schedule.New(0, release, release+horizon)
		return &Solution{Schedule: s, Delta: horizon, Energy: schedule.AuditPerCore(s, cores, mem).Total()}, nil
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].c < items[b].c })
	n := len(items)

	// Suffix sums over the aligned set {i..n}: ΣA = Σ α_c, ΣB = Σ β_c·w^λ,
	// and the binding cap L ≥ max w_c/s_up_c.
	sufA := make([]float64, n+1)
	sufB := make([]float64, n+1)
	sufCap := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		it := items[i]
		sufA[i] = sufA[i+1] + it.core.Static
		sufB[i] = sufB[i+1] + it.core.Beta*it.core.PowLambda(it.t.Workload)
		cap := 0.0
		if it.core.SpeedMax > 0 {
			cap = it.t.Workload / it.core.SpeedMax
		}
		sufCap[i] = math.Max(sufCap[i+1], cap)
	}

	// Prefix constants: tasks before the case run at their own critical
	// speed, costing w·(β·s^{λ−1} + α/s) each.
	prefix := make([]float64, n+1)
	for i := 0; i < n; i++ {
		it := items[i]
		s0 := it.t.Workload / it.c
		prefix[i+1] = prefix[i] + it.core.Dynamic(s0)*it.c + it.core.Static*it.c
	}

	bestE, bestL := math.Inf(1), 0.0
	for i := 0; i < n; i++ {
		denom := sufA[i] + mem.Static
		var lstar float64
		if denom > 0 {
			lstar = math.Pow((lambda-1)*sufB[i]/denom, 1/lambda)
		} else {
			lstar = items[i].c // free stretching: natural completions
		}
		lo := sufCap[i]
		if i > 0 {
			lo = math.Max(lo, items[i-1].c)
		}
		hi := items[i].c
		if lo > hi+schedule.Tol {
			continue
		}
		L := numeric.Clamp(lstar, lo, hi)
		e := denom*L + sufB[i]*cores[0].PowOneMinusLambda(L) + prefix[i]
		if e < bestE {
			bestE, bestL = e, L
		}
	}

	// Build the schedule: aligned tasks end at L, the rest at their
	// natural completion, one core per task in sorted order.
	s := schedule.New(n, release, release+horizon)
	models := make([]power.Core, n)
	for i, it := range items {
		models[i] = it.core
		end := it.c
		if end >= bestL-schedule.Tol {
			end = bestL
		}
		s.Add(i, schedule.Segment{
			TaskID: it.t.ID,
			Start:  release,
			End:    release + end,
			Speed:  it.t.Workload / end,
		})
	}
	s.Normalize()
	return &Solution{
		Schedule: s,
		BusyLen:  bestL,
		Delta:    horizon - bestL,
		Energy:   schedule.AuditPerCore(s, models, mem).Total(),
	}, nil
}
