package baseline

import (
	"math"
	"math/rand"
	"testing"

	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

func testSystem() power.System {
	sys := power.DefaultSystem()
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0
	return sys
}

func sporadic(r *rand.Rand, n int, x float64) task.Set {
	s := make(task.Set, n)
	var rel float64
	for i := range s {
		rel += r.Float64() * x
		s[i] = task.Task{
			ID:       i,
			Release:  rel,
			Deadline: rel + power.Milliseconds(10+r.Float64()*110),
			Workload: 2e6 + r.Float64()*3e6,
		}
	}
	return s
}

func TestOASpeedDensity(t *testing.T) {
	sys := testSystem()
	mk := func(id int, rem, d float64) *sim.Job {
		return &sim.Job{Task: task.Task{ID: id, Deadline: d, Workload: rem}, Remaining: rem}
	}
	// Two jobs: {1e6 by t=1}, {3e6 more by t=2}. Densities: 1e6/1 = 1e6
	// and 4e6/2 = 2e6 → OA speed 2e6.
	queue := []*sim.Job{mk(1, 1e6, 1), mk(2, 3e6, 2)}
	if got := OASpeed(sys, queue, 0); math.Abs(got-2e6) > 1 {
		t.Errorf("OA speed = %g, want 2e6", got)
	}
	// Past-due job clamps to s_up.
	late := []*sim.Job{mk(3, 1e6, -1)}
	if got := OASpeed(sys, late, 0); got != sys.Core.SpeedMax {
		t.Errorf("past-due OA speed = %g, want s_up", got)
	}
}

func TestMBKPSchedulesFeasibly(t *testing.T) {
	sys := testSystem()
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := sporadic(r, 30, power.Milliseconds(150))
		res, err := MBKP(tasks, sys, 8, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Misses) != 0 {
			t.Errorf("seed %d: misses %v", seed, res.Misses)
		}
		if err := res.Schedule.Validate(tasks, schedule.ValidateOptions{SpeedMax: sys.Core.SpeedMax}); err != nil {
			t.Errorf("seed %d: invalid schedule: %v", seed, err)
		}
	}
}

func TestMBKPNeverSleeps(t *testing.T) {
	sys := testSystem()
	r := rand.New(rand.NewSource(1))
	tasks := sporadic(r, 10, power.Milliseconds(400))
	res, err := MBKP(tasks, sys, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.MemorySleep != 0 || res.Breakdown.MemoryTransition != 0 {
		t.Error("MBKP must keep the memory active throughout")
	}
	// Memory static must cover the whole horizon.
	horizon := res.Schedule.End - res.Schedule.Start
	if !almostEq(res.Breakdown.MemoryStatic, sys.Memory.Static*horizon, 1e-9) {
		t.Errorf("MBKP memory static %g, want α_m·horizon %g", res.Breakdown.MemoryStatic, sys.Memory.Static*horizon)
	}
}

func TestMBKPSSleepsInGaps(t *testing.T) {
	sys := testSystem()
	r := rand.New(rand.NewSource(2))
	tasks := sporadic(r, 10, power.Milliseconds(500)) // sparse: real gaps
	mbkp, err := MBKP(tasks, sys, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	mbkps, err := MBKPS(tasks, sys, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mbkps.Breakdown.MemorySleep <= 0 {
		t.Error("MBKPS should sleep the memory in idle gaps")
	}
	if mbkps.Energy >= mbkp.Energy {
		t.Errorf("MBKPS (%g) should beat MBKP (%g) on a sparse workload with free transitions", mbkps.Energy, mbkp.Energy)
	}
	// Identical execution: core dynamic energies match exactly.
	if !almostEq(mbkp.Breakdown.CoreDynamic, mbkps.Breakdown.CoreDynamic, 1e-12) {
		t.Error("MBKP and MBKPS must share the same execution schedule")
	}
}

func TestMBKPSDegeneratesToMBKPUnderPressure(t *testing.T) {
	// With a large break-even time, the naive sleep scheme cannot profit
	// from short gaps: the break-even accounting charges min(g, ξ_m)·α_m
	// per gap, so MBKPS converges to MBKP from below.
	sys := power.DefaultSystem()
	sys.Memory.BreakEven = 0.5 // 500 ms: no gap completes a transition
	r := rand.New(rand.NewSource(3))
	tasks := sporadic(r, 25, power.Milliseconds(120))
	mbkp, err := MBKP(tasks, sys, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	mbkps, err := MBKPS(tasks, sys, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mbkps.Energy > mbkp.Energy+1e-9 {
		t.Errorf("MBKPS (%g) must never exceed MBKP (%g) under break-even accounting", mbkps.Energy, mbkp.Energy)
	}
	if !almostEq(mbkps.Energy, mbkp.Energy, 1e-3) {
		t.Errorf("with prohibitive ξ_m MBKPS (%g) should degenerate to MBKP (%g)", mbkps.Energy, mbkp.Energy)
	}

	// The harsher pay-per-attempt semantics remain available via
	// SleepAlways and do backfire.
	harsh := mbkps.Reaudit(sys, schedule.SleepNever, schedule.SleepAlways)
	if harsh.Energy <= mbkp.Energy {
		t.Error("pay-per-attempt sleeping should backfire with prohibitive ξ_m")
	}
}

func TestRaceToIdleVsCriticalSpeed(t *testing.T) {
	// Race-to-idle burns dynamic power (s_up ≫ s_0) but maximizes sleep;
	// critical speed minimizes per-core energy but keeps the memory
	// awake longer. Both must be feasible; with the default platform
	// (λ=3) racing at 1.9 GHz costs far more dynamic energy than s_0.
	sys := testSystem()
	r := rand.New(rand.NewSource(4))
	tasks := sporadic(r, 20, power.Milliseconds(300))
	race, err := RaceToIdle(tasks, sys, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	crit, err := CriticalSpeed(tasks, sys, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(race.Misses) != 0 || len(crit.Misses) != 0 {
		t.Fatalf("misses: %v / %v", race.Misses, crit.Misses)
	}
	if race.Breakdown.CoreDynamic <= crit.Breakdown.CoreDynamic {
		t.Error("racing must burn more dynamic energy than critical speed")
	}
	if race.Breakdown.MemorySleep <= crit.Breakdown.MemorySleep {
		t.Error("racing must yield more memory sleep than critical speed")
	}
}

func TestRoundRobinAssignment(t *testing.T) {
	// Two tasks, two cores: each on its own core per the §8.1.2 rule.
	sys := testSystem()
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: 0.1, Workload: 3e6},
		{ID: 2, Release: 0.001, Deadline: 0.1, Workload: 3e6},
	}
	res, err := MBKP(tasks, sys, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule.Cores[0]) == 0 || len(res.Schedule.Cores[1]) == 0 {
		t.Error("round-robin should use both cores")
	}
}

func TestQueueBacklogOnOneCore(t *testing.T) {
	// Several overlapping tasks forced onto one core: OA raises speed,
	// everything still meets deadlines.
	sys := testSystem()
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: power.Milliseconds(30), Workload: 3e6},
		{ID: 2, Release: power.Milliseconds(1), Deadline: power.Milliseconds(60), Workload: 3e6},
		{ID: 3, Release: power.Milliseconds(2), Deadline: power.Milliseconds(90), Workload: 3e6},
	}
	res, err := MBKP(tasks, sys, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Misses) != 0 {
		t.Errorf("misses: %v", res.Misses)
	}
	if err := res.Schedule.Validate(tasks, schedule.ValidateOptions{SpeedMax: sys.Core.SpeedMax}); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestEmptySet(t *testing.T) {
	for _, f := range []func(task.Set, power.System, int, *telemetry.Recorder) (*sim.Result, error){MBKP, MBKPS, RaceToIdle, CriticalSpeed} {
		res, err := f(task.Set{}, testSystem(), 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Misses) != 0 {
			t.Error("empty set must have no misses")
		}
	}
}

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestOAPreemptsForTighterArrival(t *testing.T) {
	// A loose task is running when a tight task arrives on the same
	// core: the executor must switch to the tighter deadline (EDF) and
	// raise the speed, still meeting both deadlines.
	sys := testSystem()
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: power.Milliseconds(200), Workload: 1e7},
		{ID: 2, Release: power.Milliseconds(5), Deadline: power.Milliseconds(15), Workload: 5e6},
	}
	res, err := MBKP(tasks, sys, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Misses) != 0 {
		t.Fatalf("misses: %v", res.Misses)
	}
	// Task 2 must run in [5, 15] ms even though task 1 arrived first.
	segs := res.Schedule.Cores[0]
	var sawTight bool
	for _, sg := range segs {
		if sg.TaskID == 2 {
			sawTight = true
			if sg.Start < power.Milliseconds(5)-1e-9 || sg.End > power.Milliseconds(15)+1e-9 {
				t.Errorf("tight task ran [%g, %g]", sg.Start, sg.End)
			}
		}
	}
	if !sawTight {
		t.Fatal("tight task never ran")
	}
}

func TestOverloadedCoreRecordsMisses(t *testing.T) {
	// Deliberate overload on one core: the executor races at s_up and
	// reports the misses instead of failing.
	sys := testSystem()
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: power.Milliseconds(2), Workload: 3e6},
		{ID: 2, Release: 0, Deadline: power.Milliseconds(2), Workload: 3e6},
	}
	res, err := MBKP(tasks, sys, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Misses) == 0 {
		t.Error("overload must record deadline misses")
	}
}

func TestCriticalSpeedRuleRaisesUnderPressure(t *testing.T) {
	sys := testSystem()
	mk := func(rem, d float64) *sim.Job {
		return &sim.Job{Task: task.Task{ID: 1, Deadline: d, Workload: rem}, Remaining: rem}
	}
	// Loose deadline: the rule picks s_m (≈850 MHz).
	loose := []*sim.Job{mk(1e6, 1)}
	if got := CriticalSpeedRule(sys, loose, 0); almostEq(got, sys.Core.CriticalSpeedRaw(), 1e-9) == false {
		t.Errorf("loose: speed %g, want s_m %g", got, sys.Core.CriticalSpeedRaw())
	}
	// Pressing deadline: OA density dominates.
	tight := []*sim.Job{mk(3e7, 0.02)} // 1.5 GHz needed
	if got := CriticalSpeedRule(sys, tight, 0); got < 1.5e9*(1-1e-9) {
		t.Errorf("tight: speed %g, want ≥ 1.5 GHz", got)
	}
}
