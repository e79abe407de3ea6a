package online

import (
	"fmt"
	"math"
	"sort"

	"sdem/internal/commonrelease"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// ScheduleRescan is the reference SDEM-ON implementation the incremental
// engine is checked against: on every distinct release it rescans all
// admitted jobs for the released unfinished ones and re-solves the
// common-release instance from scratch with the full §4 solver. It is
// O(n²) in arrivals and shares only the executor (sim.Stream) and the
// plan layout (execute) with Runtime — the arrival loop, the active set,
// the ends-only solve, the plan memo and the sleep certificate are all
// bypassed. The property tests assert Schedule and ScheduleRescan produce
// byte-identical results on every deterministic workload.
func ScheduleRescan(tasks task.Set, sys power.System, opts Options) (*sim.Result, error) {
	st, err := sim.NewRecorder(tasks, sys, opts.Cores)
	if err != nil {
		return nil, err
	}
	st.SetTelemetry(opts.Telemetry, engineLabel(opts.PlanAlphaZero))
	all := st.Tasks()
	var arrivals []float64
	for _, t := range all {
		if len(arrivals) == 0 || t.Release > arrivals[len(arrivals)-1] {
			arrivals = append(arrivals, t.Release)
		}
	}
	busyUntil := make([]float64, st.Cores())
	admitted := 0
	for k, now := range arrivals {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("online: cancelled at arrival %d of %d: %w", k, len(arrivals), err)
			}
		}
		next := math.Inf(1)
		if k+1 < len(arrivals) {
			next = arrivals[k+1]
		}
		for admitted < len(all) && all[admitted].Release <= now+schedule.Tol {
			if _, err := st.Admit(all[admitted]); err != nil {
				return nil, err
			}
			admitted++
		}
		if err := step(st, busyUntil, now, next, opts); err != nil {
			return nil, err
		}
	}
	return st.Result()
}

// released returns the admitted unfinished jobs with release ≤ t, by
// deadline then ID (EDF).
func released(st *sim.Stream, t float64) []*sim.Job {
	var out []*sim.Job
	for _, tk := range st.Tasks() {
		if j := st.Job(tk.ID); j != nil && !j.Done && j.Task.Release <= t+schedule.Tol {
			out = append(out, j)
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Task.Deadline != out[b].Task.Deadline {
			return out[a].Task.Deadline < out[b].Task.Deadline
		}
		return out[a].Task.ID < out[b].Task.ID
	})
	return out
}

// step plans at time now and executes until next.
func step(st *sim.Stream, busyUntil []float64, now, next float64, opts Options) error {
	active := released(st, now)
	if len(active) == 0 {
		return nil
	}
	plans, wake, err := PlanAt(st, active, now, opts)
	if err != nil {
		return err
	}
	if opts.NoProcrastinate {
		wake = now
	}
	if wake >= next {
		return nil // keep sleeping; the next arrival re-plans
	}
	return execute(st, busyUntil, plans, wake, next)
}

// PlanAt is the reference planning step: it builds the common-release
// instance of the unfinished jobs at now, solves it with the full §4
// solver (solution schedule, Normalize, audit) and reads each job's
// planned execution time off the solution's segment ends. Runtime.Plan
// must return the same plans bit for bit.
func PlanAt(st *sim.Stream, active []*sim.Job, now float64, opts Options) ([]Plan, float64, error) {
	tel := opts.Telemetry
	tel.Count("sdem.solver.online.plans", 1)
	tel.Observe("sdem.solver.online.active_jobs", float64(len(active)))
	sys := st.System()
	planSys := planSystem(sys, opts)
	virtual := make(task.Set, 0, len(active))
	byID := make(map[int]*sim.Job, len(active))
	var urgent []*sim.Job
	for _, j := range active {
		window := j.Task.Deadline - now
		if window <= 0 || (sys.Core.SpeedMax > 0 && j.Remaining/window > sys.Core.SpeedMax) {
			urgent = append(urgent, j)
			continue
		}
		virtual = append(virtual, task.Task{
			ID:       j.Task.ID,
			Release:  now,
			Deadline: j.Task.Deadline,
			Workload: j.Remaining,
		})
		byID[j.Task.ID] = j
	}
	plans := make([]Plan, 0, len(active))
	wake := math.Inf(1)
	if len(virtual) > 0 {
		sol, err := commonrelease.SolveTel(virtual, planSys, tel)
		if err != nil {
			return nil, 0, fmt.Errorf("online: planning at t=%g: %w", now, err)
		}
		ends := make(map[int]float64, len(virtual))
		for _, segs := range sol.Schedule.Cores {
			for _, sg := range segs {
				if sg.End > ends[sg.TaskID] {
					ends[sg.TaskID] = sg.End
				}
			}
		}
		for _, vt := range virtual {
			p := ends[vt.ID] - now
			if p <= 0 {
				p = vt.Workload / raceSpeed(vt.Workload, vt.Release, vt.Deadline, now, sys)
			}
			plans = append(plans, Plan{Job: byID[vt.ID], P: p, Speed: vt.Workload / p})
			wake = math.Min(wake, vt.Deadline-p)
		}
	}
	for _, j := range urgent {
		s := raceSpeed(j.Remaining, j.Task.Release, j.Task.Deadline, now, sys)
		plans = append(plans, Plan{Job: j, P: j.Remaining / s, Speed: s, Urgent: true})
		wake = now
	}
	tel.Count("sdem.solver.online.urgent_jobs", int64(len(urgent)))
	if wake < now {
		wake = now
	}
	if tel != nil && !math.IsInf(wake, 1) {
		tel.Observe("sdem.solver.online.procrastination_s", wake-now)
		tel.Instant("plan", "online", now, 0,
			telemetry.Int("active", int64(len(active))),
			telemetry.Int("urgent", int64(len(urgent))),
			telemetry.Num("wake", wake))
	}
	return plans, wake, nil
}
