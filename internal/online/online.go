// Package online implements SDEM-ON, the paper's §6 online heuristic for
// general task sets, including the §7 transition-overhead variant.
//
// On every arrival the scheduler re-plans: all unfinished work is treated
// as a common-release instance at the current time (original deadlines,
// remaining workloads) and solved optimally with the §4 schemes. The plan
// yields each task's execution time p_j; the memory (and cores) then stay
// asleep until the first task reaches its latest execution point
// d_j − p_j, at which moment every active task starts executing at its
// planned speed. A new arrival preempts and triggers a fresh plan.
package online

import (
	"context"
	"math"
	"sort"

	"sdem/internal/power"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// Options tunes the SDEM-ON run.
type Options struct {
	// Cores bounds the number of physical cores (0 = one per task). When
	// more tasks are active than cores, the surplus waits EDF-ordered for
	// a core to free up.
	Cores int
	// NoProcrastinate disables the latest-execution-point postponement:
	// tasks start executing immediately after each plan. This is the A2
	// ablation of DESIGN.md; the paper's SDEM-ON procrastinates.
	NoProcrastinate bool
	// PlanAlphaZero makes the per-arrival planning use the §4.1 (α = 0)
	// scheme even on a leaky-core platform: speeds stay near the filled
	// speed instead of racing to the critical speed. Energy is still
	// audited with the full system model. The paper's evaluation behaves
	// like this variant (its Fig. 6b discussion notes SDEM-ON scheduling
	// "at lower speed" when utilization is low, which §4.2 planning never
	// does); the default α ≠ 0 planning is strictly better.
	PlanAlphaZero bool
	// Telemetry, when non-nil, records per-plan metrics and trace events
	// (sdem.solver.online.* plus the executor's sdem.sim.* series).
	Telemetry *telemetry.Recorder
	// Ctx, when non-nil, is polled at every arrival boundary: a cancelled
	// context abandons the run between re-plans with Ctx's error, so a
	// caller-imposed deadline budget bounds even long simulations. The
	// poll is allocation-free and does not perturb the virtual-time
	// result of runs that complete.
	Ctx context.Context
}

// Plan is one job's share of a common-release re-plan at some instant:
// execute the job's remaining workload for P seconds at Speed. Urgent
// marks a job already beyond salvation at a stretched speed, which the
// plan races at s_up immediately.
type Plan struct {
	Job *sim.Job
	// P is the planned execution time in seconds.
	P float64
	// Speed is the planned constant speed in Hz.
	Speed float64
	// Urgent marks a job whose deadline is unreachable without racing.
	Urgent bool
}

// Schedule runs SDEM-ON over the task set and returns the audited result.
// Deadline misses (possible only under core shortage or infeasible
// inputs) are reported in the result rather than failing the run.
func Schedule(tasks task.Set, sys power.System, opts Options) (*sim.Result, error) {
	var rt Runtime
	return rt.Schedule(tasks, sys, opts)
}

// engineLabel is the "sched" telemetry label of the engine variant.
func engineLabel(planAlphaZero bool) string {
	if planAlphaZero {
		return "sdem-on-z"
	}
	return "sdem-on"
}

// raceSpeed is the finite racing speed for a job that can no longer meet
// its deadline (or that the plan failed to give time): s_up when the
// platform bounds speed; on an unbounded platform, the remaining work
// stretched over the remaining window — or over the original window when
// even that has closed — so the plan carries a physically meaningful
// speed instead of the SpeedCeiling sentinel (which produced absurd
// audited energy and near-zero P for urgent jobs). The final 1-second
// stretch is unreachable for validated tasks (Deadline > Release) but
// keeps the result finite for perturbed inputs.
func raceSpeed(rem, release, deadline, now float64, sys power.System) float64 {
	if sys.Core.SpeedMax > 0 {
		return sys.Core.SpeedMax
	}
	if w := deadline - now; w > 0 {
		return rem / w
	}
	if w := deadline - release; w > 0 {
		return rem / w
	}
	return rem // stretch over one second: every window signal is gone
}

// plansEDF sorts plans by deadline then task ID. The pointer receiver
// avoids boxing a fresh slice header into sort.Interface on every step.
type plansEDF []Plan

func (p *plansEDF) Len() int { return len(*p) }
func (p *plansEDF) Less(a, b int) bool {
	s := *p
	//lint:allow floatcmp: sort tie-breaking must be exact to keep the comparator transitive
	if s[a].Job.Task.Deadline != s[b].Job.Task.Deadline {
		return s[a].Job.Task.Deadline < s[b].Job.Task.Deadline
	}
	return s[a].Job.Task.ID < s[b].Job.Task.ID
}
func (p *plansEDF) Swap(a, b int) { (*p)[a], (*p)[b] = (*p)[b], (*p)[a] }

// execute lays the planned executions onto the executor's cores from
// wake until next, EDF-ordered, waiting for cores when oversubscribed.
func execute(st *sim.Stream, busyUntil []float64, plans []Plan, wake, next float64) error {
	sort.Stable((*plansEDF)(&plans))
	sys := st.System()
	for _, pl := range plans {
		j := pl.Job
		start := wake
		// Respect the no-migration pin and core availability.
		core := j.Core
		if core >= 0 {
			start = math.Max(start, busyUntil[core])
		} else {
			core = 0
			for c := range busyUntil {
				if busyUntil[c] < busyUntil[core] {
					core = c
				}
			}
			start = math.Max(start, busyUntil[core])
		}
		if start >= next {
			j.Squeezed = true
			continue // no core frees before the next re-plan
		}
		speed := pl.Speed
		// A delayed start may invalidate the plan: compress to the
		// deadline, capped at s_up (the executor caps further; late
		// completion is recorded as a miss).
		if slack := j.Task.Deadline - start; slack < j.Remaining/speed {
			j.Squeezed = true
			if slack > 0 {
				speed = math.Min(j.Remaining/slack, sys.Core.SpeedCeiling())
			} else {
				// The start is already at or past the deadline: the miss
				// is unavoidable, so race at s_up instead of keeping the
				// stale planned speed and running past the deadline slowly.
				speed = raceSpeed(j.Remaining, j.Task.Release, j.Task.Deadline, start, sys)
			}
		}
		end := math.Min(start+j.Remaining/speed, next)
		if end <= start {
			continue
		}
		actual, err := st.Run(j.Task.ID, core, start, end, speed)
		if err != nil {
			return err
		}
		busyUntil[core] = actual
	}
	return nil
}
