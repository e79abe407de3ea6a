// Package sim provides the online-scheduling substrate shared by the
// SDEM-ON heuristic, the baseline policies and the resilient runtime: one
// executor (Stream) that admits jobs, tracks their remaining workloads as
// segments are emitted, detects completions and deadline misses, and
// accounts the energy of what ran.
//
// Policies drive the executor through Admit and Run calls; the executor
// owns all bookkeeping so that every policy's output is validated by the
// same machinery.
package sim

import (
	"math"

	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
)

// workTol is the relative remaining-workload tolerance below which a job
// counts as complete.
const workTol = 1e-9

// gridTol, scaled by speed·|t|, is the work the float time lattice cannot
// resolve at coordinate t (a few ULPs, ≈ 4.5 × 2.2e-16): runSegment folds
// it into the completion tolerance so rounded segment arithmetic at large
// virtual times cannot strand a job with an unschedulable leftover.
const gridTol = 1e-15

// Job is a task instance being executed online.
type Job struct {
	Task task.Task
	// Remaining is the workload (cycles) not yet executed.
	Remaining float64
	// Core is the core the job is pinned to, or -1 before first
	// execution (§3 forbids migration, so the first Run fixes it).
	Core int
	// Done marks completion.
	Done bool
	// Completed is the completion time (meaningful once Done).
	Completed float64
	// Squeezed records that queueing delay forced the executor to defer
	// this job past a re-plan or compress/race it after a late start: a
	// subsequent miss is queueing-induced (cores full), not a planning
	// error. The soak harness uses it to classify misses.
	Squeezed bool
	// missed marks that some segment finished past the deadline or the
	// job could not complete at all.
	missed bool
}

// SpeedLimiter models an execution-time speed perturbation (e.g. thermal
// throttling): given the commanded segment it returns the speed the core
// actually achieves. The limiter may assume the commanded speed is
// constant over [t0, t1]; callers that need sub-segment resolution split
// segments at perturbation boundaries before calling Run.
type SpeedLimiter func(core int, t0, t1, speed float64) float64

// runSegment is the execution core of Stream.Run: it caps the commanded
// speed at s_up, applies the limiter, executes work, detects completion —
// preserving the caller's end time when it is the exact completion point
// up to Tol, so replaying a planned segment reproduces it bit-for-bit —
// and flags deadline misses. It returns the actual segment end and speed
// plus whether the speed was capped or throttled (for telemetry).
//
//sdem:hotpath
func runSegment(j *Job, sys power.System, limiter SpeedLimiter, core int, t0, t1, speed float64) (end, actual float64, capped, throttled bool) {
	if sys.Core.SpeedMax > 0 && speed > sys.Core.SpeedMax {
		speed = sys.Core.SpeedMax // silently cap: the miss detector judges the result
		capped = true
	}
	if limiter != nil {
		if eff := limiter(core, t0, t1, speed); eff > 0 && eff < speed {
			speed = eff // the achieved speed is what the audit charges
			throttled = true
		}
	}
	j.Core = core
	work := speed * (t1 - t0)
	// The float time lattice cannot represent durations below one ULP of
	// the coordinate, so at large virtual times a truncated segment can
	// strand a leftover of up to a few ULPs' worth of work (speed·ulp(t1)):
	// any follow-up segment short enough to carry it rounds to zero length
	// and is never executable. Fold that grid quantum into the completion
	// tolerance so the leftover completes here, on the segment that made it.
	gridSlack := speed * math.Abs(t1) * gridTol
	if work >= j.Remaining-workTol*math.Max(1, j.Task.Workload)-gridSlack {
		if exact := t0 + j.Remaining/speed; math.Abs(exact-t1) > schedule.Tol {
			t1 = exact
		}
		work = j.Remaining
		j.Done = true
		j.Completed = t1
	}
	j.Remaining -= work
	if j.Done && t1 > j.Task.Deadline+schedule.Tol {
		j.missed = true
	}
	return t1, speed, capped, throttled
}

// Metrics summarizes the timeliness of an online run.
type Metrics struct {
	// MeanResponse and MaxResponse are completion − release statistics
	// over completed jobs (seconds).
	MeanResponse, MaxResponse float64
	// MeanLaxity is the average deadline − completion slack of completed
	// jobs; negative contributions come from late completions.
	MeanLaxity float64
	// Completed counts finished jobs.
	Completed int
}

// Result is the outcome of a recorded run.
type Result struct {
	// Schedule is the assembled schedule; its policies default to
	// SleepBreakEven and callers adjust them per baseline semantics.
	Schedule *schedule.Schedule
	// Misses lists task IDs that completed late or never completed.
	Misses []int
	// MissDetails describes each miss: lateness for late completions,
	// undelivered cycles for jobs that never finished. The executor that
	// produced the run classifies them (planned vs fault-induced).
	MissDetails []schedule.Miss
	// Energy is the audited total under the schedule's sleep policies.
	Energy float64
	// Breakdown itemizes the audit.
	Breakdown schedule.Breakdown
	// Metrics summarizes response times.
	Metrics Metrics
}

// Reaudit recomputes a result's energy under different sleep policies,
// returning a copy. Use it to account one schedule under the MBKP
// (never-sleep) and MBKPS (always-sleep) conventions.
func (r *Result) Reaudit(sys power.System, corePolicy, memPolicy schedule.SleepPolicy) *Result { //lint:allow auditcheck: clones an already-normalized schedule for reaccounting
	clone := *r.Schedule
	clone.CorePolicy = corePolicy
	clone.MemoryPolicy = memPolicy
	b := schedule.Audit(&clone, sys)
	return &Result{
		Schedule:    &clone,
		Misses:      r.Misses,
		MissDetails: r.MissDetails,
		Energy:      b.Total(),
		Breakdown:   b,
		Metrics:     r.Metrics,
	}
}
