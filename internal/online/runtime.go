package online

import (
	"fmt"
	"math"

	"sdem/internal/commonrelease"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// Runtime is the incremental SDEM-ON engine. Every run — a finite task
// set or an unbounded stream — is one arrival loop (drive) over a
// sim.Stream; on each arrival the engine re-plans with:
//
//   - an EDF-ordered active set updated on admission (O(log active)
//     insert, O(active) sweep) instead of an O(jobs) rescan + sort per
//     arrival;
//   - a retained commonrelease.Solver whose normalization/scan/audit
//     scratch persists across re-plans, with an ends-only solve that
//     skips building and auditing the per-plan solution schedule;
//   - a plan-delta memo: normalization subtracts the release before any
//     arithmetic, so a re-plan whose (deadline − now, remaining) bit
//     pattern exactly matches the previous solve reuses its relative
//     ends verbatim (periodic workloads hit this every hyperperiod);
//   - a sleep certificate: when a cheap per-job bound already proves
//     every planned start lands at or past the next arrival, the solve
//     is skipped entirely — procrastination would sleep through it.
//
// Every path is bit-compatible with a full rescan that re-solves each
// arrival from scratch: the equivalence property tests assert
// byte-identical sim.Result against that oracle on fault-free and
// fault-injected deterministic workloads.
//
// A Runtime is not safe for concurrent use, but is reusable: retaining
// one across runs (as Schedule does via a sync.Pool) re-plans
// allocation-free once its buffers reach the high-water instance size.
type Runtime struct {
	solver commonrelease.Solver

	set     setSource   // the finite source of a Schedule run
	pending arrivalHeap // drawn arrivals not yet admitted, (release, ID) order
	early   []float64   // distinct releases already admitted ahead of their instant

	active    []*sim.Job // EDF order: (deadline, ID)
	virtual   task.Set   // common-release instance of the current re-plan
	vjobs     []*sim.Job // vjobs[i] is the job behind virtual[i]
	urgent    []*sim.Job
	plans     []Plan
	busyUntil []float64

	// Plan-delta memo: the (window, workload) bit pattern of the last
	// solved instance and its relative ends.
	memoKey  []uint64
	memoEnds []float64
	keyBuf   []uint64
	memoOK   bool
}

// Schedule runs SDEM-ON over the task set and returns the audited result.
// The set, validated as a whole and sorted by release, is a finite
// arrival source driven through a recording executor.
func (rt *Runtime) Schedule(tasks task.Set, sys power.System, opts Options) (*sim.Result, error) {
	st, err := sim.NewRecorder(tasks, sys, opts.Cores)
	if err != nil {
		return nil, err
	}
	st.SetTelemetry(opts.Telemetry, engineLabel(opts.PlanAlphaZero))
	rt.set = setSource{tasks: st.Tasks()}
	_, err = rt.drive(&rt.set, st, StreamOptions{}, opts)
	rt.set = setSource{}
	if err != nil {
		return nil, err
	}
	return st.Result()
}

// setSource is a finite arrival source over a release-sorted task set.
type setSource struct {
	tasks task.Set
	next  int
}

// Next implements workload.Source.
func (s *setSource) Next() (task.Task, bool) {
	if s.next >= len(s.tasks) {
		return task.Task{}, false
	}
	s.next++
	return s.tasks[s.next-1], true
}

// reset clears all per-run state while keeping the backing buffers.
func (rt *Runtime) reset(cores int) []float64 {
	rt.pending = rt.pending[:0]
	rt.early = rt.early[:0]
	rt.active = rt.active[:0]
	rt.virtual = rt.virtual[:0]
	rt.vjobs = rt.vjobs[:0]
	rt.urgent = rt.urgent[:0]
	rt.plans = rt.plans[:0]
	rt.memoOK = false
	if cap(rt.busyUntil) < cores {
		rt.busyUntil = make([]float64, cores)
	}
	busy := rt.busyUntil[:cores]
	for i := range busy {
		busy[i] = 0
	}
	return busy
}

// insertActive inserts j into the (deadline, ID)-ordered active set.
// The key is a total order (IDs are unique), so the resulting sequence
// is exactly what a stable EDF sort of the released jobs produces.
func (rt *Runtime) insertActive(j *sim.Job) {
	lo, hi := 0, len(rt.active)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		a := rt.active[mid]
		if a.Task.Deadline < j.Task.Deadline ||
			//lint:allow floatcmp: order tie-breaking must be exact to keep the comparator transitive
			(a.Task.Deadline == j.Task.Deadline && a.Task.ID < j.Task.ID) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	rt.active = append(rt.active, nil)
	copy(rt.active[lo+1:], rt.active[lo:])
	rt.active[lo] = j
}

// sweepDone drops completed jobs from the active set in place.
func (rt *Runtime) sweepDone() {
	w := 0
	for _, j := range rt.active {
		if !j.Done {
			rt.active[w] = j
			w++
		}
	}
	for i := w; i < len(rt.active); i++ {
		rt.active[i] = nil
	}
	rt.active = rt.active[:w]
}

// planSystem is the platform the re-plans solve on: the real one, or its
// α = 0 reduction under PlanAlphaZero.
func planSystem(sys power.System, opts Options) power.System {
	if opts.PlanAlphaZero {
		sys.Core.Static = 0
		sys.Core.BreakEven = 0
	}
	return sys
}

// step re-plans the active set at now and executes until next. It runs
// once per arrival: everything below it is the SDEM-ON hot path.
//
//sdem:hotpath
func (rt *Runtime) step(st *sim.Stream, busy []float64, now, next float64, opts Options) error {
	sys := st.System()
	rt.split(now, sys, opts.Telemetry)
	if len(rt.urgent) == 0 && !opts.NoProcrastinate && rt.certifySleep(now, next, sys, planSystem(sys, opts)) {
		// The certificate proves the plan would compute wake ≥ next and
		// execute nothing: sleep through to the next arrival without
		// solving.
		tel := opts.Telemetry
		tel.Count("sdem.solver.online.skipped_solves", 1)
		if tel != nil {
			tel.Instant("sleep-certificate", "online", now, 0,
				telemetry.Int("active", int64(len(rt.active))),
				telemetry.Num("until", next))
		}
		return nil
	}
	wake, err := rt.plan(now, sys, opts)
	if err != nil {
		return err
	}
	if opts.NoProcrastinate {
		wake = now
	}
	if wake >= next {
		return nil // keep sleeping; the next arrival re-plans
	}
	return execute(st, busy, rt.plans, wake, next)
}

// Plan solves the common-release instance formed by the given unfinished
// jobs at time now — remaining workloads, original deadlines — with the
// §4 schemes, and returns the per-job plans: the planned jobs in EDF
// order, then the urgent ones. This is the planning half of every
// SDEM-ON arrival step, exported so the resilient runtime's recovery
// chain can re-plan mid-execution after a fault. Infeasibility surfaces
// as an error wrapping schedule.ErrInfeasible. The plans alias the
// Runtime's scratch and are valid until its next run or Plan call.
func (rt *Runtime) Plan(jobs []*sim.Job, now float64, sys power.System, opts Options) ([]Plan, error) {
	rt.active = rt.active[:0]
	for _, j := range jobs {
		rt.insertActive(j)
	}
	rt.split(now, sys, opts.Telemetry)
	if _, err := rt.plan(now, sys, opts); err != nil {
		return nil, err
	}
	return rt.plans, nil
}

// split partitions the active set at now into the common-release
// instance of the jobs that can still meet their deadline at a stretched
// speed (virtual, backed by vjobs) and the urgent rest.
func (rt *Runtime) split(now float64, sys power.System, tel *telemetry.Recorder) {
	tel.Count("sdem.solver.online.plans", 1)
	tel.Observe("sdem.solver.online.active_jobs", float64(len(rt.active)))
	rt.virtual = rt.virtual[:0]
	rt.vjobs = rt.vjobs[:0]
	rt.urgent = rt.urgent[:0]
	for _, j := range rt.active {
		window := j.Task.Deadline - now
		if window <= 0 || (sys.Core.SpeedMax > 0 && j.Remaining/window > sys.Core.SpeedMax) {
			// Already beyond salvation at a stretched speed: race
			// immediately; the executor records the miss if it is one.
			rt.urgent = append(rt.urgent, j)
			continue
		}
		rt.virtual = append(rt.virtual, task.Task{
			ID:       j.Task.ID,
			Release:  now,
			Deadline: j.Task.Deadline,
			Workload: j.Remaining,
		})
		rt.vjobs = append(rt.vjobs, j)
	}
}

// plan solves the split instance into rt.plans and returns the wake time.
func (rt *Runtime) plan(now float64, sys power.System, opts Options) (float64, error) {
	tel := opts.Telemetry
	plans := rt.plans[:0]
	wake := math.Inf(1)
	if len(rt.virtual) > 0 {
		ends, err := rt.planEnds(now, planSystem(sys, opts), tel)
		if err != nil {
			return 0, err
		}
		for i, vt := range rt.virtual {
			// Replay the full solve's build + Normalize + ends extraction
			// bit-for-bit: the task's segment is [now, now+endRel], kept
			// only when its float duration exceeds Tol/10, and a task
			// with no kept segment plans from an end of 0.
			var endAbs float64
			if endRel := ends[i]; endRel > 0 {
				if abs := now + endRel; abs-now > schedule.Tol/10 {
					endAbs = abs
				}
			}
			p := endAbs - now
			if p <= 0 { // defensive: plan must give every task time
				p = vt.Workload / raceSpeed(vt.Workload, vt.Release, vt.Deadline, now, sys)
			}
			//lint:allow hotalloc: appends into the reused plans backing
			plans = append(plans, Plan{Job: rt.vjobs[i], P: p, Speed: vt.Workload / p})
			wake = math.Min(wake, vt.Deadline-p)
		}
	}
	for _, j := range rt.urgent {
		s := raceSpeed(j.Remaining, j.Task.Release, j.Task.Deadline, now, sys)
		//lint:allow hotalloc: appends into the reused plans backing
		plans = append(plans, Plan{Job: j, P: j.Remaining / s, Speed: s, Urgent: true})
		wake = now
	}
	rt.plans = plans
	tel.Count("sdem.solver.online.urgent_jobs", int64(len(rt.urgent)))
	if wake < now {
		wake = now
	}
	if tel != nil && !math.IsInf(wake, 1) {
		tel.Observe("sdem.solver.online.procrastination_s", wake-now)
		tel.Instant("plan", "online", now, 0,
			telemetry.Int("active", int64(len(rt.active))),
			telemetry.Int("urgent", int64(len(rt.urgent))),
			telemetry.Num("wake", wake))
	}
	return wake, nil
}

// certifySleep reports whether, without solving, every planned start is
// provably at or past next, so the plan would execute nothing
// before the next arrival. Soundness: any plan's execution time p is
// either (now + endRel) − now for some endRel ≤ max natural completion
// (the busy length never exceeds it, and float addition/subtraction of a
// constant is monotone), or — when the segment rounds away — exactly the
// defensive race value, which is recomputed here per job. Both wake
// bounds must clear next. The caller has already excluded urgent jobs
// and NoProcrastinate.
func (rt *Runtime) certifySleep(now, next float64, sys, planSys power.System) bool {
	if math.IsInf(next, 1) || len(rt.virtual) == 0 {
		return false
	}
	cmax := rt.solver.MaxNaturalCompletion(rt.virtual, planSys)
	bound := (now + cmax) - now // ≥ any solved plan's p
	for _, vt := range rt.virtual {
		if vt.Deadline-bound < next {
			return false
		}
		pDef := vt.Workload / raceSpeed(vt.Workload, vt.Release, vt.Deadline, now, sys)
		if vt.Deadline-pDef < next {
			return false
		}
	}
	return true
}

// planEnds returns the relative completion ends of the current virtual
// instance, reusing the previous solve when the instance's (window,
// workload) bit pattern is unchanged. Normalization subtracts the
// release before any arithmetic, so an exact key match guarantees
// bit-identical ends at any absolute time — the memo compares the full
// key, never a hash, to rule out collisions.
func (rt *Runtime) planEnds(now float64, planSys power.System, tel *telemetry.Recorder) ([]float64, error) {
	key := rt.keyBuf[:0]
	for _, vt := range rt.virtual {
		//lint:allow hotalloc: appends into the reused key backing
		key = append(key, math.Float64bits(vt.Deadline-vt.Release), math.Float64bits(vt.Workload))
	}
	rt.keyBuf = key
	if rt.memoOK && len(key) == len(rt.memoKey) {
		same := true
		for i := range key {
			if key[i] != rt.memoKey[i] {
				same = false
				break
			}
		}
		if same {
			tel.Count("sdem.solver.online.plan_reuse", 1)
			return rt.memoEnds, nil
		}
	}
	ends, err := rt.solver.PlanEndsRel(rt.virtual, planSys, tel)
	if err != nil {
		rt.memoOK = false
		return nil, fmt.Errorf("online: planning at t=%g: %w", now, err)
	}
	rt.memoKey = append(rt.memoKey[:0], key...)
	rt.memoEnds = append(rt.memoEnds[:0], ends...)
	rt.memoOK = true
	return rt.memoEnds, nil
}
