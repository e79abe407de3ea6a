// Package baseline implements the comparison schedulers of the paper's
// evaluation (§8) plus two ablation policies for the title question:
//
//   - MBKP: the memory-oblivious online multi-core DVS scheme attributed
//     to Albers et al. (2007): tasks are assigned to cores round-robin in
//     arrival order (the §8.1.2 convention) and each core runs the
//     Optimal-Available rule of Yao et al. — at every scheduling event the
//     core executes its earliest-deadline job at the maximum remaining
//     work density. Neither the memory nor the cores ever sleep.
//   - MBKPS: the same schedule accounted with the naive sleep scheme of
//     §8: the memory transitions to sleep in every idle gap regardless of
//     length (cores stay idle-active, as MBKP does not manage them).
//   - RaceToIdle: every job races at s_up as soon as possible, then the
//     core and memory sleep — one pole of "race to idle or not".
//   - CriticalSpeed: every job runs at the core-optimal critical speed
//     s_0 (raised to the OA density under deadline pressure) — the other
//     pole, maximizing per-core efficiency with no memory coordination.
package baseline

import (
	"math"
	"sort"

	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// SpeedRule selects the execution speed for a core's ready queue at time
// t. It receives the queue EDF-sorted.
type SpeedRule func(sys power.System, queue []*sim.Job, t float64) float64

// OASpeed is the Optimal-Available rule: the maximum density
// max_d Σ_{deadline ≤ d} remaining / (d − t) over the queue.
func OASpeed(sys power.System, queue []*sim.Job, t float64) float64 {
	var acc, best float64
	for _, j := range queue {
		acc += j.Remaining
		if d := j.Task.Deadline - t; d > 0 {
			if s := acc / d; s > best {
				best = s
			}
		} else {
			best = math.Inf(1) // past due: flat out
		}
	}
	return clampSpeed(sys, best)
}

// RaceSpeed always runs flat out at s_up.
func RaceSpeed(sys power.System, _ []*sim.Job, _ float64) float64 {
	if sys.Core.SpeedMax > 0 {
		return sys.Core.SpeedMax
	}
	return 0
}

// CriticalSpeedRule runs at the critical speed s_0, raised to the OA
// density when deadlines press harder.
func CriticalSpeedRule(sys power.System, queue []*sim.Job, t float64) float64 {
	s := sys.Core.CriticalSpeedRaw()
	if oa := OASpeed(sys, queue, t); oa > s {
		s = oa
	}
	return clampSpeed(sys, s)
}

func clampSpeed(sys power.System, s float64) float64 {
	if (sys.Core.SpeedMax > 0 && s > sys.Core.SpeedMax) || math.IsInf(s, 1) {
		return sys.Core.SpeedCeiling() // an uncapped core racing a past-due job gets the sentinel
	}
	return s
}

// run executes the per-core EDF simulation under the given speed rule:
// round-robin assignment in arrival order, independent cores,
// re-evaluation of the speed at every arrival, completion and
// critical-deadline event. A non-nil tel records the executor under the
// given scheduler name.
func run(tasks task.Set, sys power.System, cores int, rule SpeedRule, tel *telemetry.Recorder, name string) (*sim.Result, error) {
	st, err := sim.NewRecorder(tasks, sys, cores)
	if err != nil {
		return nil, err
	}
	st.SetTelemetry(tel, name)
	n := st.Cores()
	// Round-robin assignment in release order (§8.1.2: "the first 8 tasks
	// are assigned to 8 cores separately, the 9th to the first core...").
	perCore := make([][]task.Task, n)
	for i, t := range st.Tasks() {
		c := i % n
		perCore[c] = append(perCore[c], t)
	}
	for c, assigned := range perCore {
		if err := runCore(st, c, assigned, rule); err != nil {
			return nil, err
		}
	}
	return st.Result()
}

// runCore simulates one core over its assigned tasks, admitting each to
// the executor at its release.
func runCore(st *sim.Stream, core int, assigned []task.Task, rule SpeedRule) error {
	sys := st.System()
	idx := 0 // next arrival in assigned (release-sorted)
	var queue []*sim.Job
	now := math.Inf(-1)
	if len(assigned) > 0 {
		now = assigned[0].Release
	}
	for {
		// Admit arrivals up to now.
		for idx < len(assigned) && assigned[idx].Release <= now+schedule.Tol {
			j, err := st.Admit(assigned[idx])
			if err != nil {
				return err
			}
			if !j.Done {
				queue = append(queue, j)
			}
			idx++
		}
		// Drop completed jobs.
		live := queue[:0]
		for _, j := range queue {
			if !j.Done {
				live = append(live, j)
			}
		}
		queue = live
		if len(queue) == 0 {
			if idx >= len(assigned) {
				return nil
			}
			now = assigned[idx].Release
			continue
		}
		sort.SliceStable(queue, func(a, b int) bool {
			//lint:allow floatcmp: sort tie-breaking must be exact to keep the comparator transitive
			if queue[a].Task.Deadline != queue[b].Task.Deadline {
				return queue[a].Task.Deadline < queue[b].Task.Deadline
			}
			return queue[a].Task.ID < queue[b].Task.ID
		})
		speed := rule(sys, queue, now)
		if speed <= 0 {
			speed = queue[0].Task.FilledSpeed()
		}
		head := queue[0]
		// Run until the next event: head completion, next arrival, or the
		// critical deadline where the density regime changes.
		until := now + head.Remaining/speed
		if idx < len(assigned) && assigned[idx].Release < until {
			until = assigned[idx].Release
		}
		if dCrit := criticalDeadline(queue, now, speed); dCrit < until {
			until = dCrit
		}
		if until <= now+schedule.Tol {
			until = now + head.Remaining/speed // degenerate event spacing
		}
		end, err := st.Run(head.Task.ID, core, now, until, speed)
		if err != nil {
			return err
		}
		now = end
	}
}

// criticalDeadline returns the earliest queue deadline after now — the
// point where the OA density regime can change.
func criticalDeadline(queue []*sim.Job, now, _ float64) float64 {
	best := math.Inf(1)
	for _, j := range queue {
		if d := j.Task.Deadline; d > now+schedule.Tol && d < best {
			best = d
		}
	}
	return best
}

// MBKP schedules with the memory-oblivious OA policy and accounts energy
// with no sleeping anywhere (the paper's MBKP reference).
func MBKP(tasks task.Set, sys power.System, cores int, tel *telemetry.Recorder) (*sim.Result, error) {
	res, err := run(tasks, sys, cores, OASpeed, tel, "mbkp")
	if err != nil {
		return nil, err
	}
	return res.Reaudit(sys, schedule.SleepBreakEven, schedule.SleepNever), nil
}

// MBKPS is MBKP with the naive sleep scheme of §8: the memory attempts to
// sleep in every idle gap; cores are still never slept. Under the
// break-even overhead model a sleep attempt in a gap of length g costs
// α_m·min(g, ξ_m) — a gap shorter than the break-even time never
// completes the transition cycle and saves nothing — so the naive scheme
// is audited with SleepBreakEven accounting. This reproduces the paper's
// observation that MBKPS degenerates to MBKP when the system is busy
// (gaps too short to be worth anything) and only profits from long gaps.
func MBKPS(tasks task.Set, sys power.System, cores int, tel *telemetry.Recorder) (*sim.Result, error) {
	res, err := run(tasks, sys, cores, OASpeed, tel, "mbkps")
	if err != nil {
		return nil, err
	}
	return res.Reaudit(sys, schedule.SleepBreakEven, schedule.SleepBreakEven), nil
}

// RaceToIdle schedules every job at s_up and lets cores and memory sleep
// at break-even gaps — the "race" pole of the title question.
func RaceToIdle(tasks task.Set, sys power.System, cores int, tel *telemetry.Recorder) (*sim.Result, error) {
	res, err := run(tasks, sys, cores, RaceSpeed, tel, "race")
	if err != nil {
		return nil, err
	}
	return res.Reaudit(sys, schedule.SleepBreakEven, schedule.SleepBreakEven), nil
}

// CriticalSpeed schedules every job at the per-core optimal speed s_0
// with break-even sleeping — per-core optimal but memory-oblivious.
func CriticalSpeed(tasks task.Set, sys power.System, cores int, tel *telemetry.Recorder) (*sim.Result, error) {
	res, err := run(tasks, sys, cores, CriticalSpeedRule, tel, "critical")
	if err != nil {
		return nil, err
	}
	return res.Reaudit(sys, schedule.SleepBreakEven, schedule.SleepBreakEven), nil
}
