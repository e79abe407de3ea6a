package resilient

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"sdem/internal/core"
	"sdem/internal/faults"
	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
	"sdem/internal/workload"
)

// benchTasks draws the §8.1.1 FFT benchmark set used across the tests:
// identical instances, hence agreeable deadlines.
func benchTasks(t *testing.T, n int, seed int64) task.Set {
	t.Helper()
	set, err := workload.Benchmark(workload.BenchmarkConfig{N: n, Kernel: workload.KernelFFT, U: 4}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func offline(t *testing.T, tasks task.Set, sys power.System) (*schedule.Schedule, float64) {
	t.Helper()
	sol, err := core.SolveCtx(nil, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sol.Schedule, sol.Energy
}

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// A fault-free replay must reproduce the input schedule exactly: same
// segments, same audited energy — for both an offline optimum and an
// online run. This is the identity the whole subsystem is anchored on.
func TestZeroFaultReplayIdentical(t *testing.T) {
	sys := power.DefaultSystem()
	tasks := benchTasks(t, 8, 3)
	sched, energy := offline(t, tasks, sys)

	for _, pol := range []Policy{DefaultPolicy(), NoRecovery()} {
		res, err := Execute(sched, tasks, sys, faults.Plan{}, pol)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Sim.Schedule.Cores, sched.Cores) {
			t.Fatalf("policy %+v: replay altered the schedule:\nwant %v\ngot  %v", pol, sched.Cores, res.Sim.Schedule.Cores)
		}
		if !almostEq(res.Energy, energy, 1e-12) {
			t.Fatalf("policy %+v: replay energy %.15g, input audit %.15g", pol, res.Energy, energy)
		}
		if len(res.FaultMisses) != 0 || len(res.Recoveries) != 0 || len(res.Averted) != 0 {
			t.Fatalf("policy %+v: fault-free replay reported activity: %+v", pol, res)
		}
	}

	onl, err := online.Schedule(tasks, sys, online.Options{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(onl.Schedule, tasks, sys, faults.Plan{}, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Sim.Schedule.Cores, onl.Schedule.Cores) {
		t.Fatalf("online replay altered the schedule")
	}
	if !almostEq(res.Energy, onl.Energy, 1e-12) {
		t.Fatalf("online replay energy %.15g, input %.15g", res.Energy, onl.Energy)
	}
}

// A moderate overrun on a schedule with speed headroom must be absorbed
// by the first chain step alone: one (or more) boosts, no racing, no
// fault-induced miss — while the no-recovery replay of the same plan
// misses the same deadline.
func TestOverrunAbsorbedByBoost(t *testing.T) {
	sys := power.DefaultSystem()
	tasks := benchTasks(t, 8, 3)
	sched, base := offline(t, tasks, sys)
	plan := faults.Plan{Faults: []faults.Fault{
		{Kind: faults.Overrun, TaskID: tasks[0].ID, Core: -1, Factor: 1.4},
	}}

	res, err := Execute(sched, tasks, sys, plan, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FaultMisses) != 0 {
		t.Fatalf("recovery failed to absorb a 1.4x overrun: %v", res.FaultMisses)
	}
	if res.Recoveries.Count(ActionBoost) == 0 {
		t.Fatalf("no boost logged; log: %v", res.Recoveries)
	}
	if res.Recoveries.Count(ActionRace) != 0 {
		t.Fatalf("race used where boost suffices; log: %v", res.Recoveries)
	}
	found := false
	for _, m := range res.Averted {
		if m.TaskID == tasks[0].ID {
			found = true
			if m.Class != schedule.MissAverted {
				t.Fatalf("averted miss classified %v", m.Class)
			}
		}
	}
	if !found {
		t.Fatalf("averted miss of task %d not reported: %v", tasks[0].ID, res.Averted)
	}
	if res.Energy < base {
		t.Fatalf("absorbing extra work cost no energy: %.6g < %.6g", res.Energy, base)
	}

	// The same fault with no recovery: the task runs out of planned
	// capacity and the miss is reported as fault-induced.
	bare, err := Execute(sched, tasks, sys, plan, NoRecovery())
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.FaultMisses) != 1 || bare.FaultMisses[0].TaskID != tasks[0].ID {
		t.Fatalf("no-recovery replay misses = %v, want task %d", bare.FaultMisses, tasks[0].ID)
	}
	if bare.FaultMisses[0].Class != schedule.MissFaultInduced {
		t.Fatalf("miss classified %v, want fault-induced", bare.FaultMisses[0].Class)
	}
	if len(bare.Recoveries) != 0 {
		t.Fatalf("NoRecovery logged recoveries: %v", bare.Recoveries)
	}
}

// With the boost step disabled the chain must escalate to the §4
// re-plan and still save the deadline.
func TestReplanRecovery(t *testing.T) {
	sys := power.DefaultSystem()
	tasks := benchTasks(t, 8, 3)
	sched, _ := offline(t, tasks, sys)
	plan := faults.Plan{Faults: []faults.Fault{
		{Kind: faults.Overrun, TaskID: tasks[0].ID, Core: -1, Factor: 1.4},
	}}

	res, err := Execute(sched, tasks, sys, plan, Policy{Replan: true, Race: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FaultMisses) != 0 {
		t.Fatalf("re-plan failed to absorb the overrun: %v", res.FaultMisses)
	}
	if res.Recoveries.Count(ActionReplan) == 0 {
		t.Fatalf("no re-plan logged; log: %v", res.Recoveries)
	}
	if res.Recoveries.Count(ActionBoost) != 0 {
		t.Fatalf("boost logged despite being disabled; log: %v", res.Recoveries)
	}
}

// An overrun so large that even racing at s_up cannot meet the deadline
// must walk the whole chain, race anyway, and report the late completion
// as a fault-induced miss — never silently drop it.
func TestUnrecoverableOverrunReported(t *testing.T) {
	sys := power.DefaultSystem()
	// Workload fills 79% of the window at s_up; a 1.4x overrun needs
	// 110% of the window even at s_up — unrecoverable by construction.
	tasks := task.Set{{ID: 0, Release: 0, Deadline: 0.1, Workload: 1.5e8}}
	sched, _ := offline(t, tasks, sys)

	plan := faults.Plan{Faults: []faults.Fault{
		{Kind: faults.Overrun, TaskID: 0, Core: -1, Factor: 1.4},
	}}
	res, err := Execute(sched, tasks, sys, plan, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FaultMisses) != 1 {
		t.Fatalf("fault misses = %v, want exactly the unrecoverable task", res.FaultMisses)
	}
	m := res.FaultMisses[0]
	if m.TaskID != 0 || m.Class != schedule.MissFaultInduced {
		t.Fatalf("miss = %+v, want task 0 fault-induced", m)
	}
	if m.Lateness <= 0 && m.Remaining <= 0 {
		t.Fatalf("miss reports neither lateness nor undelivered work: %+v", m)
	}
	if n := res.Recoveries.Count(ActionRace); n == 0 {
		t.Fatalf("race never attempted; log: %v", res.Recoveries)
	}
	raced := false
	for _, r := range res.Recoveries {
		if r.Action == ActionRace && !r.Succeeded {
			raced = true
		}
	}
	if !raced {
		t.Fatalf("race logged as succeeding on an unrecoverable job; log: %v", res.Recoveries)
	}
}

// The headline acceptance property: over a seeded suite of
// moderate-intensity fault plans on agreeable-deadline benchmark
// workloads, the full recovery chain induces zero fault misses while the
// no-recovery replay of the same plans misses at least once.
func TestRecoverySuiteZeroFaultMisses(t *testing.T) {
	sys := power.DefaultSystem()
	tasks := benchTasks(t, 10, 3)
	sched, _ := offline(t, tasks, sys)
	// WakeDelayMax is scaled down: a full-xi_m wake stall on a
	// sub-millisecond procrastinated execution is unrecoverable by
	// physics (the memory is simply not awake), which is a property of
	// the platform, not of the recovery chain under test.
	cfg := faults.Config{Intensity: 0.5, WakeDelayMax: 0.01}

	bareMisses := 0
	for seed := int64(1); seed <= 10; seed++ {
		plan := faults.Generate(cfg, tasks, sys, seed)
		res, err := Execute(sched, tasks, sys, plan, DefaultPolicy())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.FaultMisses) != 0 {
			t.Errorf("seed %d: recovery left %d fault-induced misses: %v", seed, len(res.FaultMisses), res.FaultMisses)
		}
		bare, err := Execute(sched, tasks, sys, plan, NoRecovery())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bareMisses += len(bare.FaultMisses)
		if len(bare.Recoveries) != 0 {
			t.Errorf("seed %d: no-recovery replay recovered", seed)
		}
	}
	if bareMisses == 0 {
		t.Fatalf("the fault suite is vacuous: no-recovery replay never missed")
	}
}

// Spurious wakes are pure energy faults: no timing change, no misses,
// but a strictly positive memory-energy surcharge when they interrupt
// actual sleep.
func TestSpuriousWakeEnergyOnly(t *testing.T) {
	sys := power.DefaultSystem()
	tasks := benchTasks(t, 8, 3)
	sched, base := offline(t, tasks, sys)
	// The schedule sleeps between the well-separated instances; a wake in
	// the middle of the horizon lands in a sleep gap.
	mid := (sched.Start + sched.End) / 2
	plan := faults.Plan{Faults: []faults.Fault{
		{Kind: faults.SpuriousWake, TaskID: -1, Core: -1, At: mid, Delay: 0.005},
	}}
	res, err := Execute(sched, tasks, sys, plan, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Sim.Schedule.Cores, sched.Cores) {
		t.Fatalf("a spurious wake changed the executed schedule")
	}
	if res.SpuriousWakeEnergy <= 0 {
		t.Fatalf("spurious wake in a sleep gap charged no energy")
	}
	want := sys.Memory.Static*0.005 + sys.Memory.TransitionEnergy()
	if !almostEq(res.SpuriousWakeEnergy, want, 1e-12) {
		t.Fatalf("spurious energy %.6g, want %.6g", res.SpuriousWakeEnergy, want)
	}
	if !almostEq(res.Energy, base+want, 1e-9) {
		t.Fatalf("total %.9g, want base %.9g + %.6g", res.Energy, base, want)
	}
}

// A late release within the procrastination slack is absorbed for free:
// the planned start already postpones past the delayed arrival, or the
// boost step re-times the execution; either way no miss.
func TestLateReleaseRecovered(t *testing.T) {
	sys := power.DefaultSystem()
	tasks := benchTasks(t, 8, 3)
	sched, _ := offline(t, tasks, sys)
	plan := faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LateRelease, TaskID: tasks[1].ID, Core: -1, Delay: 0.004},
	}}
	res, err := Execute(sched, tasks, sys, plan, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FaultMisses) != 0 {
		t.Fatalf("late release caused misses: %v", res.FaultMisses)
	}
	bare, err := Execute(sched, tasks, sys, plan, NoRecovery())
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.FaultMisses) == 0 {
		t.Skipf("plan start postponed past the delayed arrival; fault vacuous for this schedule")
	}
}

// Planned misses in the input must stay classified as planned, not be
// blamed on the faults.
func TestPlannedMissClassification(t *testing.T) {
	sys := power.DefaultSystem()
	// Two tasks forced onto one core with overlapping windows: the online
	// scheduler completes one late.
	tasks := task.Set{
		{ID: 0, Release: 0, Deadline: 0.010, Workload: 1.5e7},
		{ID: 1, Release: 0, Deadline: 0.011, Workload: 1.5e7},
	}
	onl, err := online.Schedule(tasks, sys, online.Options{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(onl.Misses) == 0 {
		t.Skip("workload no longer produces a planned miss")
	}
	res, err := Execute(onl.Schedule, tasks, sys, faults.Plan{}, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PlannedMisses) != len(onl.Misses) {
		t.Fatalf("planned misses %v, input had %v", res.PlannedMisses, onl.Misses)
	}
	if len(res.FaultMisses) != 0 {
		t.Fatalf("fault-free replay classified misses as fault-induced: %v", res.FaultMisses)
	}
	for _, m := range res.PlannedMisses {
		if m.Class != schedule.MissPlanned {
			t.Fatalf("planned miss classified %v", m.Class)
		}
	}
}

// Sentinel errors must be branchable through the public entry point.
func TestExecuteSentinelErrors(t *testing.T) {
	sys := power.DefaultSystem()
	tasks := benchTasks(t, 4, 3)
	if _, err := Execute(nil, tasks, sys, faults.Plan{}, DefaultPolicy()); !errors.Is(err, schedule.ErrInfeasible) {
		t.Fatalf("nil schedule error = %v, want ErrInfeasible", err)
	}
	sched, _ := offline(t, tasks, sys)
	bad := faults.Plan{Faults: []faults.Fault{{Kind: faults.Overrun, TaskID: 0, Core: -1, Factor: -1}}}
	if _, err := Execute(sched, tasks, sys, bad, DefaultPolicy()); err == nil {
		t.Fatalf("invalid fault plan accepted")
	}
}

// A task planned at s_up on a throttled core has no speed headroom: the
// boost must size its event by the capped speed the core actually runs,
// or every slice under-delivers and the recovery budget runs out on a job
// whose window has ample slack.
func TestBoostOnThrottledCore(t *testing.T) {
	sys := power.DefaultSystem()
	tk := task.Task{ID: 1, Release: 0, Deadline: power.Milliseconds(20), Workload: 1.9e6} // 1 ms at s_up
	tasks := task.Set{tk}
	sched := schedule.New(1, tk.Release, tk.Deadline)
	sched.Add(0, schedule.Segment{TaskID: tk.ID, Start: 0, End: power.Milliseconds(1), Speed: sys.Core.SpeedMax})
	plan := faults.Plan{Faults: []faults.Fault{
		{Kind: faults.SpeedCap, TaskID: -1, Core: 0, Factor: 0.9, At: 0, Until: power.Milliseconds(10)},
	}}
	res, err := Execute(sched, tasks, sys, plan, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FaultMisses) != 0 {
		t.Fatalf("throttled job missed: %v; log: %v", res.FaultMisses, res.Recoveries)
	}
	if n := res.Recoveries.Count(ActionBoost); n != 1 {
		t.Errorf("want a single boost, got %d; log: %v", n, res.Recoveries)
	}
}

// A late release past the task's whole window leaves no time to run in:
// admission clamps the release to a sliver before the deadline, the job
// still executes (late), and the outcome is a fault-induced miss — never
// an error — with or without recovery.
func TestLateReleasePastWindowIsFaultMiss(t *testing.T) {
	sys := power.DefaultSystem()
	tasks := benchTasks(t, 8, 3)
	sched, _ := offline(t, tasks, sys)
	victim := tasks[1]
	plan := faults.Plan{Faults: []faults.Fault{
		{Kind: faults.LateRelease, TaskID: victim.ID, Core: -1, Delay: 2 * victim.Window()},
	}}
	for _, pol := range []Policy{DefaultPolicy(), NoRecovery()} {
		res, err := Execute(sched, tasks, sys, plan, pol)
		if err != nil {
			t.Fatalf("policy %+v: %v", pol, err)
		}
		if len(res.FaultMisses) != 1 || res.FaultMisses[0].TaskID != victim.ID {
			t.Fatalf("policy %+v: fault misses %v, want task %d", pol, res.FaultMisses, victim.ID)
		}
		if res.FaultMisses[0].Class != schedule.MissFaultInduced {
			t.Errorf("policy %+v: miss classified %v", pol, res.FaultMisses[0].Class)
		}
	}
}
