package resilient

import (
	"fmt"
	"math"
	"sort"

	"sdem/internal/faults"
	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// workTol is the relative remaining-workload tolerance of the detector;
// it matches sim's completion tolerance (1e-9) by value.
const workTol = 1e-9

// event is one pending execution: run taskID on core over [start, end] at
// speed. quantum is the detection slice length the event is executed in
// (0 = whole event at once).
type event struct {
	taskID, core      int
	start, end, speed float64
	quantum           float64
}

func (ev event) work() float64 { return ev.speed * (ev.end - ev.start) }

// wakeStall is one prolonged memory wake: events starting in
// [wake, wake+delay) are pushed to wake+delay.
type wakeStall struct {
	wake, delay float64
}

// executor drives one fault-perturbed replay through a recording
// sim.Stream: it is the replay policy, the stream is the executor.
type executor struct {
	input   *schedule.Schedule
	tasks   task.Set
	st      *sim.Stream
	rt      online.Runtime // the re-planner of recovery step 2
	pol     Policy
	plan    faults.Plan
	events  []event // pending, sorted by (start, core, taskID)
	coreNow []float64
	stalls  []wakeStall
	caps    []faults.Fault

	recoveries map[int]int // per-job recovery attempts
	threatened map[int]bool
	log        RecoveryLog
	planned    map[int]bool // planned-miss task IDs

	executed int // total slices run, runaway guard
}

// maxSlicesPerJob bounds the simulation against pathological fault plans;
// generous compared to any legitimate run (a job's plan yields at most
// a few dozen slices even with recoveries).
const maxSlicesPerJob = 4096

func newExecutor(sched *schedule.Schedule, tasks task.Set, sys power.System, plan faults.Plan, pol Policy) (*executor, error) {
	cores := sched.NumCores
	if len(sched.Cores) > cores {
		cores = len(sched.Cores)
	}
	st, err := sim.NewRecorder(tasks, sys, cores) // 0 cores: one per task
	if err != nil {
		return nil, fmt.Errorf("resilient: %w", err)
	}
	st.SetHorizon(sched.Start, sched.End)
	st.SetPolicies(sched.CorePolicy, sched.MemoryPolicy)
	st.SetTelemetry(pol.Telemetry, "resilient")
	e := &executor{
		input:      sched,
		tasks:      tasks,
		st:         st,
		pol:        pol,
		plan:       plan,
		coreNow:    make([]float64, st.Cores()),
		recoveries: make(map[int]int),
		threatened: make(map[int]bool),
		planned:    plannedMisses(sched, tasks),
	}
	for i := range e.coreNow {
		e.coreNow[i] = sched.Start
	}

	// Admission applies the task-level faults (overruns, late releases);
	// the execution-time ones are installed below.
	for _, t := range st.Tasks() {
		if _, err := st.Admit(plan.JobFault(t.ID).Apply(t)); err != nil {
			return nil, fmt.Errorf("resilient: %w", err)
		}
	}
	e.caps = plan.ByKind(faults.SpeedCap)
	if len(e.caps) > 0 {
		smax := sys.Core.SpeedMax
		caps := e.caps
		st.SetSpeedLimiter(func(core int, t0, t1, speed float64) float64 {
			s := speed
			for _, c := range caps {
				if c.Core == core && t0 < c.Until-schedule.Tol && t1 > c.At+schedule.Tol {
					s = math.Min(s, c.Factor*smax)
				}
			}
			return s
		})
	}
	e.stalls = matchWakeStalls(sched, sys, plan)

	// Seed the event queue with the planned segments. With an empty fault
	// plan every event executes whole (quantum 0), so the replay emits the
	// planned segments verbatim.
	for c, segs := range sched.Cores {
		for _, sg := range segs {
			ev := event{taskID: sg.TaskID, core: c, start: sg.Start, end: sg.End, speed: sg.Speed}
			if !plan.Empty() {
				ev.quantum = (sg.End - sg.Start) / checkpoints
			}
			e.events = append(e.events, ev)
		}
	}
	e.sortEvents()
	return e, nil
}

// matchWakeStalls maps each WakeLatency fault onto the planned memory
// wake it delays: the end of the first sleep-eligible common idle gap
// (length ≥ ξ_m) at or after the fault's anchor time. Faults that match
// no wake are inert. Multiple faults on one wake accumulate.
func matchWakeStalls(sched *schedule.Schedule, sys power.System, plan faults.Plan) []wakeStall {
	wl := plan.ByKind(faults.WakeLatency)
	if len(wl) == 0 {
		return nil
	}
	var wakes []float64
	for _, g := range sleepGaps(sched, sys.Memory.BreakEven) {
		if g.End < sched.End {
			wakes = append(wakes, g.End)
		}
	}
	byWake := make(map[float64]float64)
	for _, f := range wl {
		for _, w := range wakes {
			if w >= f.At-schedule.Tol {
				byWake[w] += f.Delay
				break
			}
		}
	}
	out := make([]wakeStall, 0, len(byWake))
	for w, d := range byWake {
		if d > 0 {
			out = append(out, wakeStall{wake: w, delay: d})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].wake < out[j].wake })
	return out
}

// stallAdjust pushes a start time out of any prolonged-wake window.
func (e *executor) stallAdjust(t float64) float64 {
	for _, s := range e.stalls {
		if t >= s.wake-schedule.Tol && t < s.wake+s.delay {
			t = s.wake + s.delay
		}
	}
	return t
}

func (e *executor) sortEvents() {
	sort.SliceStable(e.events, func(i, j int) bool {
		a, b := e.events[i], e.events[j]
		//lint:allow floatcmp: queue ordering must be exact to keep the comparator transitive
		if a.start != b.start {
			return a.start < b.start
		}
		if a.core != b.core {
			return a.core < b.core
		}
		return a.taskID < b.taskID
	})
}

// push inserts an event keeping the queue sorted.
func (e *executor) push(ev event) {
	e.events = append(e.events, ev)
	e.sortEvents()
}

// cancelFuture removes all pending events of the job and returns the core
// energy their execution would have cost (for the recovery audit).
func (e *executor) cancelFuture(taskID int) float64 {
	core := e.st.System().Core
	var cost float64
	out := e.events[:0]
	for _, ev := range e.events {
		if ev.taskID == taskID {
			cost += core.EnergyFor(ev.work(), ev.speed)
			continue
		}
		out = append(out, ev)
	}
	e.events = out
	return cost
}

// futureCapacity sums the work the pending events still deliver for a job.
func (e *executor) futureCapacity(taskID int) float64 {
	var cap float64
	for _, ev := range e.events {
		if ev.taskID == taskID {
			cap += ev.work()
		}
	}
	return cap
}

// coreMax is the fastest speed the core sustains from t on: the speed
// ceiling, lowered by any speed cap in force at t. Recovery sizes its
// events with it, so the capacity they promise is capacity the core
// delivers.
func (e *executor) coreMax(core int, t float64) float64 {
	s := e.st.System().Core.SpeedCeiling()
	for _, c := range e.caps {
		if c.Core == core && t >= c.At-schedule.Tol && t < c.Until-schedule.Tol {
			s = math.Min(s, c.Factor*e.st.System().Core.SpeedMax)
		}
	}
	return s
}

// run executes the event queue to completion and assembles the result.
func (e *executor) run() (*Result, error) {
	budget := maxSlicesPerJob * (len(e.tasks) + 1)
	for len(e.events) > 0 {
		ev := e.events[0]
		e.events = e.events[1:]
		j := e.st.Job(ev.taskID)
		if j == nil {
			return nil, fmt.Errorf("resilient: schedule references unknown task %d: %w", ev.taskID, schedule.ErrInfeasible)
		}
		if j.Done {
			continue
		}
		if e.executed++; e.executed > budget {
			return nil, fmt.Errorf("resilient: runaway replay aborted after %d slices", e.executed)
		}

		start := math.Max(ev.start, j.Task.Release)
		start = math.Max(start, e.coreNow[ev.core])
		start = e.stallAdjust(start)
		if start >= ev.end-schedule.Tol/10 {
			// The event was squeezed out (pushed past its window by
			// recoveries, stalls or late release): its work is lost;
			// the detector decides what happens to the job.
			e.check(j, math.Max(start, e.coreNow[ev.core]))
			continue
		}

		sliceEnd := ev.end
		if ev.quantum > 0 {
			sliceEnd = math.Min(sliceEnd, start+ev.quantum)
		}
		sliceEnd = math.Min(sliceEnd, e.nextCapBoundary(ev.core, start))
		if sliceEnd <= start || sliceEnd > ev.end-schedule.Tol {
			// Snap a full or dust-short final quantum to the event end so
			// slicing never leaves sub-tolerance tails.
			sliceEnd = ev.end
		}

		actual, err := e.st.Run(ev.taskID, ev.core, start, sliceEnd, ev.speed)
		if err != nil {
			return nil, fmt.Errorf("resilient: replay: %w", err)
		}
		if actual > e.coreNow[ev.core] {
			e.coreNow[ev.core] = actual
		}
		if !j.Done && sliceEnd < ev.end-schedule.Tol/10 {
			rest := ev
			rest.start = sliceEnd
			e.push(rest)
		}
		if !j.Done {
			e.check(j, actual)
		}
	}
	return e.finish()
}

// nextCapBoundary returns the earliest speed-cap interval edge on the
// core strictly after t, so slices never straddle a throttling change.
func (e *executor) nextCapBoundary(core int, t float64) float64 {
	next := math.Inf(1)
	for _, c := range e.caps {
		if c.Core != core {
			continue
		}
		for _, b := range [2]float64{c.At, c.Until} {
			if b > t+schedule.Tol && b < next {
				next = b
			}
		}
	}
	return next
}

// check is the detector: after every executed slice (and for squeezed
// events) it compares the job's actual remaining workload against the
// capacity the rest of the plan still delivers. A shortfall means the
// plan no longer completes the job — recover.
func (e *executor) check(j *sim.Job, now float64) {
	id := j.Task.ID
	tol := workTol * math.Max(1, j.Task.Workload)
	if j.Remaining <= e.futureCapacity(id)+tol {
		return
	}
	e.pol.Telemetry.Count("sdem.resilient.detections", 1)
	e.threatened[id] = true
	if !e.pol.anyRecovery() {
		// Pure replay: the shortfall plays out and the executor records
		// the miss at the end.
		return
	}
	if e.recoveries[id] >= maxRecoveries {
		return // budget exhausted; outcome recorded as a miss
	}
	e.recoveries[id]++
	e.recover(j, now)
}

// logRecovery appends to the audit trail and mirrors the attempt into
// telemetry, labeled by action.
func (e *executor) logRecovery(r Recovery) {
	e.log = append(e.log, r)
	tel := e.pol.Telemetry
	if tel == nil {
		return
	}
	labels := "action=" + r.Action.String()
	tel.CountL("sdem.resilient.recoveries", labels, 1)
	tel.AddL("sdem.resilient.recovery_delta_j", labels, r.EnergyDelta)
	if !r.Succeeded {
		tel.CountL("sdem.resilient.recovery_failures", labels, 1)
	}
	tel.Instant("recover "+r.Action.String(), "resilient", r.Time, 0,
		telemetry.Int("task", int64(r.TaskID)),
		telemetry.Num("delta_j", r.EnergyDelta),
		telemetry.Str("reason", r.Reason))
}

// recover walks the chain: boost, re-plan, race.
func (e *executor) recover(j *sim.Job, now float64) {
	id := j.Task.ID
	sys := e.st.System()
	reason := fmt.Sprintf("%.4g cycles beyond plan capacity", j.Remaining-e.futureCapacity(id))

	// Step 1: local speed boost — run the remainder at the larger of the
	// planned speed and the minimum speed that still meets the deadline.
	// Never below the planned speed: the plan already ran at the
	// (memory-aware) optimum, and stretching the remainder across the
	// window would keep the core and the shared memory awake for the
	// whole slack instead of the execution.
	if e.pol.SpeedBoost {
		var planned float64
		for _, pe := range e.events {
			if pe.taskID == id && pe.speed > planned {
				planned = pe.speed
			}
		}
		core, start := e.placement(j, now)
		smax := e.coreMax(core, start)
		avail := j.Task.Deadline - start
		if avail > 0 {
			needed := j.Remaining / avail
			if needed <= smax*(1+workTol) {
				speed := math.Min(math.Max(needed, planned), smax)
				cancelled := e.cancelFuture(id)
				ev := event{taskID: id, core: core, start: start, end: start + j.Remaining/speed, speed: speed}
				ev.quantum = (ev.end - ev.start) / checkpoints
				e.push(ev)
				e.logRecovery(Recovery{
					Time: now, TaskID: id, Action: ActionBoost, Reason: reason,
					EnergyDelta: sys.Core.EnergyFor(j.Remaining, speed) - cancelled,
					Succeeded:   true,
				})
				return
			}
		}
	}

	// Step 2: global re-plan of all released unfinished work as a
	// common-release instance at this instant, via SDEM-ON's planning
	// path. Infeasibility (ErrInfeasible) falls through to racing.
	if e.pol.Replan {
		if ok := e.replan(j, now, reason); ok {
			return
		}
	}

	// Step 3: race to idle.
	if e.pol.Race {
		core, start := e.placement(j, now)
		speed := e.coreMax(core, start)
		cancelled := e.cancelFuture(id)
		ev := event{taskID: id, core: core, start: start, end: start + j.Remaining/speed, speed: speed}
		ev.quantum = (ev.end - ev.start) / checkpoints
		e.push(ev)
		e.logRecovery(Recovery{
			Time: now, TaskID: id, Action: ActionRace, Reason: reason,
			EnergyDelta: sys.Core.EnergyFor(j.Remaining, speed) - cancelled,
			Succeeded:   ev.end <= j.Task.Deadline+schedule.Tol,
		})
	}
}

// placement returns the core and earliest start for new work of the job:
// its pinned core, or the least-loaded one if it never ran.
func (e *executor) placement(j *sim.Job, now float64) (int, float64) {
	core := j.Core
	if core < 0 {
		core = 0
		for c := range e.coreNow {
			if e.coreNow[c] < e.coreNow[core] {
				core = c
			}
		}
	}
	start := math.Max(now, e.coreNow[core])
	start = math.Max(start, j.Task.Release)
	return core, e.stallAdjust(start)
}

// replan re-solves all released unfinished work at now and swaps the
// affected jobs' pending events for the new plan. Returns false when the
// re-plan is infeasible or does not save the triggering job.
func (e *executor) replan(trigger *sim.Job, now float64, reason string) bool {
	var active []*sim.Job
	for _, t := range e.st.Tasks() {
		if j := e.st.Job(t.ID); !j.Done && j.Task.Release <= now+schedule.Tol {
			active = append(active, j)
		}
	}
	if len(active) == 0 {
		return false
	}
	opts := online.Options{Telemetry: e.pol.Telemetry}
	plans, err := e.rt.Plan(active, now, e.st.System(), opts)
	if err != nil {
		return false // wraps schedule.ErrInfeasible: no schedule can help
	}
	for _, pl := range plans {
		if pl.Job == trigger && pl.Urgent {
			// The trigger is beyond any stretched-speed plan; do not
			// disturb the other jobs — racing is the only option left.
			return false
		}
	}
	sys := e.st.System()

	// EDF layout of the new plans onto the cores, respecting pins.
	sort.SliceStable(plans, func(a, b int) bool {
		ja, jb := plans[a].Job, plans[b].Job
		//lint:allow floatcmp: sort tie-breaking must be exact to keep the comparator transitive
		if ja.Task.Deadline != jb.Task.Deadline {
			return ja.Task.Deadline < jb.Task.Deadline
		}
		return ja.Task.ID < jb.Task.ID
	})
	var cancelled, newCost float64
	for _, pl := range plans {
		cancelled += e.cancelFuture(pl.Job.Task.ID)
	}
	busy := make([]float64, len(e.coreNow))
	copy(busy, e.coreNow)
	triggerOK := false
	for _, pl := range plans {
		j := pl.Job
		core := j.Core
		if core < 0 {
			core = 0
			for c := range busy {
				if busy[c] < busy[core] {
					core = c
				}
			}
		}
		start := math.Max(now, busy[core])
		start = math.Max(start, j.Task.Release)
		start = e.stallAdjust(start)
		ev := event{taskID: j.Task.ID, core: core, start: start, end: start + pl.P, speed: pl.Speed}
		ev.quantum = (ev.end - ev.start) / checkpoints
		e.push(ev)
		busy[core] = ev.end
		newCost += sys.Core.EnergyFor(j.Remaining, pl.Speed)
		if j == trigger {
			triggerOK = ev.end <= j.Task.Deadline+schedule.Tol
		}
	}
	e.logRecovery(Recovery{
		Time: now, TaskID: trigger.Task.ID, Action: ActionReplan, Reason: reason,
		EnergyDelta: newCost - cancelled,
		Succeeded:   triggerOK,
	})
	return triggerOK
}

// finish wraps up: audit, miss classification, fault energy extras.
func (e *executor) finish() (*Result, error) {
	simRes, err := e.st.Result()
	if err != nil {
		return nil, err
	}
	if !e.plan.Empty() {
		// Recombine the checkpoint slices; never touch a fault-free
		// replay, which must reproduce the input segments verbatim.
		simRes.Schedule.Coalesce()
	}

	res := &Result{Sim: simRes, Recoveries: e.log}

	missed := make(map[int]bool, len(simRes.Misses))
	for i := range simRes.MissDetails {
		m := &simRes.MissDetails[i]
		missed[m.TaskID] = true
		if e.planned[m.TaskID] {
			m.Class = schedule.MissPlanned
			res.PlannedMisses = append(res.PlannedMisses, *m)
		} else {
			m.Class = schedule.MissFaultInduced
			res.FaultMisses = append(res.FaultMisses, *m)
		}
	}
	// Threatened jobs that met their deadline: averted misses.
	var averted []int
	for id := range e.threatened {
		if !missed[id] {
			averted = append(averted, id)
		}
	}
	sort.Ints(averted)
	for _, id := range averted {
		j := e.st.Job(id)
		res.Averted = append(res.Averted, schedule.Miss{
			TaskID:      id,
			Deadline:    j.Task.Deadline,
			CompletedAt: j.Completed,
			Lateness:    j.Completed - j.Task.Deadline,
			Class:       schedule.MissAverted,
		})
	}

	mem := e.st.System().Memory
	for _, s := range e.stalls {
		res.WakeStallEnergy += mem.Static * s.delay
	}
	res.SpuriousWakeEnergy = e.spuriousEnergy(simRes.Schedule)
	res.Energy = simRes.Energy + res.WakeStallEnergy + res.SpuriousWakeEnergy
	tel := e.pol.Telemetry
	tel.Count("sdem.resilient.planned_misses", int64(len(res.PlannedMisses)))
	tel.Count("sdem.resilient.fault_misses", int64(len(res.FaultMisses)))
	tel.Count("sdem.resilient.averted", int64(len(res.Averted)))
	tel.Add("sdem.resilient.wake_stall_j", res.WakeStallEnergy)
	tel.Add("sdem.resilient.spurious_wake_j", res.SpuriousWakeEnergy)
	return res, nil
}

// spuriousEnergy charges each spurious wake that lands in a gap the final
// schedule actually sleeps through: the memory pays its static power for
// the spurious active time plus one extra transition cycle. Wakes during
// busy or unslept-idle time are absorbed (the memory was active anyway).
func (e *executor) spuriousEnergy(s *schedule.Schedule) float64 {
	sw := e.plan.ByKind(faults.SpuriousWake)
	if len(sw) == 0 {
		return 0
	}
	mem := e.st.System().Memory
	sleeps := sleepGaps(s, mem.BreakEven)
	var total float64
	for _, f := range sw {
		for _, g := range sleeps {
			if f.At >= g.Start && f.At < g.End {
				active := math.Min(f.Delay, g.End-f.At)
				total += mem.Static*active + mem.TransitionEnergy()
				break
			}
		}
	}
	return total
}

// sleepGaps returns the common idle gaps the schedule's memory policy
// sleeps through: none under SleepNever, every positive gap under
// SleepAlways, gaps of at least the break-even time otherwise.
func sleepGaps(s *schedule.Schedule, breakEven float64) []schedule.Interval {
	switch s.MemoryPolicy {
	case schedule.SleepNever:
		return nil
	case schedule.SleepAlways:
		breakEven = 0
	}
	busy := s.MemoryBusy()
	var out []schedule.Interval
	cur := s.Start
	for _, iv := range busy {
		if iv.Start-cur >= breakEven && iv.Start > cur {
			out = append(out, schedule.Interval{Start: cur, End: iv.Start})
		}
		if iv.End > cur {
			cur = iv.End
		}
	}
	if s.End-cur >= breakEven && s.End > cur {
		out = append(out, schedule.Interval{Start: cur, End: s.End})
	}
	return out
}
