package online

import (
	"math"
	"math/rand"
	"testing"

	"sdem/internal/baseline"
	"sdem/internal/commonrelease"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
)

func testSystem() power.System {
	sys := power.DefaultSystem()
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0
	return sys
}

// sporadic draws the §8.1.2 synthetic workload: cycles in [2,5]e6,
// windows in [10,120] ms, inter-arrival uniform in [0, x].
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

func TestSingleTaskMatchesOfflineOptimum(t *testing.T) {
	// With one task the online heuristic must reproduce the offline
	// common-release optimum exactly (same busy length, procrastinated to
	// the end of the window instead of the start — equal energy).
	sys := testSystem()
	tasks := task.Set{{ID: 1, Release: 0, Deadline: power.Milliseconds(80), Workload: 4e6}}
	res, err := Schedule(tasks, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Misses) != 0 {
		t.Fatalf("misses: %v", res.Misses)
	}
	off, err := commonrelease.Solve(tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Energy, off.Energy, 1e-6) {
		t.Errorf("online %.9g != offline optimum %.9g", res.Energy, off.Energy)
	}
	// Procrastination: the execution must end exactly at the deadline.
	segs := res.Schedule.Cores[0]
	if len(segs) == 0 || !almostEq(segs[len(segs)-1].End, power.Milliseconds(80), 1e-9) {
		t.Errorf("single task should be right-aligned to its deadline, segs=%v", segs)
	}
}

func TestCommonReleaseBatchMatchesOffline(t *testing.T) {
	// All tasks arriving together: one plan, offline-optimal energy.
	sys := testSystem()
	r := rand.New(rand.NewSource(3))
	tasks := make(task.Set, 5)
	for i := range tasks {
		tasks[i] = task.Task{
			ID:       i,
			Release:  0.02,
			Deadline: 0.02 + power.Milliseconds(20+r.Float64()*100),
			Workload: 2e6 + r.Float64()*3e6,
		}
	}
	res, err := Schedule(tasks, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := commonrelease.Solve(tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Misses) != 0 {
		t.Fatalf("misses: %v", res.Misses)
	}
	if !almostEq(res.Energy, off.Energy, 1e-6) {
		t.Errorf("online %.9g != offline %.9g", res.Energy, off.Energy)
	}
}

func TestSporadicFeasibleAndValid(t *testing.T) {
	sys := testSystem()
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := sporadic(r, 30, power.Milliseconds(100))
		res, err := Schedule(tasks, sys, Options{Cores: 8})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Misses) != 0 {
			t.Errorf("seed %d: deadline misses %v", seed, res.Misses)
		}
		if err := res.Schedule.Validate(tasks, schedule.ValidateOptions{SpeedMax: sys.Core.SpeedMax}); err != nil {
			t.Errorf("seed %d: invalid schedule: %v", seed, err)
		}
	}
}

func TestBeatsBaselinesOnSyntheticWorkload(t *testing.T) {
	// The headline claim: SDEM-ON saves energy against MBKP and MBKPS on
	// the paper's synthetic workload at the default operating point.
	sys := testSystem()
	var on, mbkp, mbkps float64
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := sporadic(r, 40, power.Milliseconds(400))
		a, err := Schedule(tasks, sys, Options{Cores: 8})
		if err != nil {
			t.Fatal(err)
		}
		b, err := baseline.MBKP(tasks, sys, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := baseline.MBKPS(tasks, sys, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Misses)+len(b.Misses)+len(c.Misses) != 0 {
			t.Fatalf("seed %d: misses %v/%v/%v", seed, a.Misses, b.Misses, c.Misses)
		}
		on += a.Energy
		mbkp += b.Energy
		mbkps += c.Energy
	}
	if on >= mbkps {
		t.Errorf("SDEM-ON (%g) should beat MBKPS (%g)", on, mbkps)
	}
	if mbkps >= mbkp {
		t.Errorf("MBKPS (%g) should beat MBKP (%g)", mbkps, mbkp)
	}
}

func TestProcrastinationHelps(t *testing.T) {
	// Ablation A2: with the memory model, postponing to the latest
	// execution point consolidates busy time and should not lose to
	// immediate execution on aggregate.
	sys := testSystem()
	var with, without float64
	for seed := int64(20); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := sporadic(r, 30, power.Milliseconds(300))
		a, err := Schedule(tasks, sys, Options{Cores: 8})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Schedule(tasks, sys, Options{Cores: 8, NoProcrastinate: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Misses) != 0 || len(b.Misses) != 0 {
			t.Fatalf("seed %d: unexpected misses", seed)
		}
		with += a.Energy
		without += b.Energy
	}
	if with > without*1.02 {
		t.Errorf("procrastination (%g) should not lose to immediate start (%g)", with, without)
	}
}

func TestOverheadVariantRuns(t *testing.T) {
	sys := power.DefaultSystem() // ξ_m = 40 ms, break-even accounting
	r := rand.New(rand.NewSource(7))
	tasks := sporadic(r, 20, power.Milliseconds(400))
	res, err := Schedule(tasks, sys, Options{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Misses) != 0 {
		t.Errorf("misses: %v", res.Misses)
	}
	if err := res.Schedule.Validate(tasks, schedule.ValidateOptions{SpeedMax: sys.Core.SpeedMax}); err != nil {
		t.Errorf("invalid schedule: %v", err)
	}
	if res.Breakdown.MemoryTransition <= 0 {
		t.Error("sparse workload under ξ_m > 0 should include memory transitions")
	}
}

func TestAlphaZeroModel(t *testing.T) {
	sys := testSystem()
	sys.Core.Static = 0
	r := rand.New(rand.NewSource(11))
	tasks := sporadic(r, 15, power.Milliseconds(200))
	res, err := Schedule(tasks, sys, Options{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Misses) != 0 {
		t.Errorf("misses: %v", res.Misses)
	}
	if res.Breakdown.CoreStatic != 0 {
		t.Errorf("α=0 run charged core static %g", res.Breakdown.CoreStatic)
	}
}

func TestCoreShortageQueues(t *testing.T) {
	// Two simultaneous tasks, one core: EDF runs first, the second queues
	// and both still meet generous deadlines.
	sys := testSystem()
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: power.Milliseconds(40), Workload: 3e6},
		{ID: 2, Release: 0, Deadline: power.Milliseconds(120), Workload: 3e6},
	}
	res, err := Schedule(tasks, sys, Options{Cores: 1})
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

func TestEmptyAndZeroWork(t *testing.T) {
	sys := testSystem()
	res, err := Schedule(task.Set{}, sys, Options{})
	if err != nil || res.Energy != 0 {
		t.Errorf("empty: %v %v", res, err)
	}
	res, err = Schedule(task.Set{{ID: 1, Release: 0, Deadline: 1, Workload: 0}}, sys, Options{})
	if err != nil || res.Energy != 0 || len(res.Misses) != 0 {
		t.Errorf("zero work: %+v %v", res, err)
	}
}

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
