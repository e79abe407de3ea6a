package partition

import (
	"math"
	"math/rand"
	"testing"

	"sdem/internal/commonrelease"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
)

func boundedSystem(cores int) power.System {
	sys := power.DefaultSystem()
	sys.Cores = cores
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0
	return sys
}

func randomCommonRelease(r *rand.Rand, n int) task.Set {
	s := make(task.Set, n)
	for i := range s {
		s[i] = task.Task{
			ID:       i,
			Release:  0,
			Deadline: power.Milliseconds(10 + r.Float64()*110),
			Workload: 2e6 + r.Float64()*3e6,
		}
	}
	return s
}

func TestGeneralDeadlinesFeasibleSchedules(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		sys := boundedSystem(2 + r.Intn(3))
		tasks := randomCommonRelease(r, sys.Cores+2+r.Intn(8))
		res, err := SolveGeneralDeadlines(tasks, sys)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Schedule.Validate(tasks, schedule.ValidateOptions{NonPreemptive: true, SpeedMax: sys.Core.SpeedMax}); err != nil {
			t.Errorf("seed %d: invalid schedule: %v", seed, err)
		}
		// Bounded cores cannot beat the unbounded §4.2 optimum.
		unbounded, err := commonrelease.Solve(tasks, sys, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Energy < unbounded.Energy*(1-1e-6) {
			t.Errorf("seed %d: bounded (%g) beats the unbounded optimum (%g)", seed, res.Energy, unbounded.Energy)
		}
	}
}

func TestGeneralDeadlinesMatchesCommonDeadlineSolver(t *testing.T) {
	// On a common-deadline instance the heuristic competes with the
	// dedicated Theorem 1 solver (exact partition): it may lose a little
	// to the exact split but must stay within a modest factor.
	sys := boundedSystem(2)
	sys.Core.Static = 0
	d := power.Milliseconds(100)
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: d, Workload: 3e6},
		{ID: 2, Release: 0, Deadline: d, Workload: 1e6},
		{ID: 3, Release: 0, Deadline: d, Workload: 2e6},
		{ID: 4, Release: 0, Deadline: d, Workload: 2e6},
	}
	exact, err := Solve(tasks, sys, true)
	if err != nil {
		t.Fatal(err)
	}
	heur, err := SolveGeneralDeadlines(tasks, sys)
	if err != nil {
		t.Fatal(err)
	}
	if heur.Energy < exact.Energy*(1-1e-6) {
		t.Errorf("heuristic (%g) beats the exact common-deadline optimum (%g)", heur.Energy, exact.Energy)
	}
	if heur.Energy > exact.Energy*1.25 {
		t.Errorf("heuristic (%g) more than 25%% above exact (%g)", heur.Energy, exact.Energy)
	}
}

func TestGeneralDeadlinesLoadPressureRaisesSpeed(t *testing.T) {
	// A tight early deadline forces its core above the relaxed W/L speed.
	sys := boundedSystem(1)
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: power.Milliseconds(4), Workload: 5e6}, // needs ≥1.25 GHz
		{ID: 2, Release: 0, Deadline: power.Milliseconds(200), Workload: 5e6},
	}
	res, err := SolveGeneralDeadlines(tasks, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(tasks, schedule.ValidateOptions{NonPreemptive: true, SpeedMax: sys.Core.SpeedMax}); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	first := res.Schedule.Cores[0][0]
	if first.TaskID != 1 {
		t.Fatalf("EDF order violated: first task %d", first.TaskID)
	}
	if first.Speed < 1.25e9*(1-1e-9) {
		t.Errorf("tight deadline needs ≥1.25 GHz, got %g", first.Speed)
	}
}

func TestGeneralDeadlinesRejections(t *testing.T) {
	sys := boundedSystem(1)
	// Overloaded single core.
	over := task.Set{
		{ID: 1, Release: 0, Deadline: power.Milliseconds(2), Workload: 3e6},
		{ID: 2, Release: 0, Deadline: power.Milliseconds(2), Workload: 3e6},
	}
	if _, err := SolveGeneralDeadlines(over, sys); err == nil {
		t.Error("overloaded instance must be rejected")
	}
	// Non-common release.
	bad := task.Set{
		{ID: 1, Release: 0, Deadline: 1, Workload: 1e6},
		{ID: 2, Release: 0.5, Deadline: 1, Workload: 1e6},
	}
	if _, err := SolveGeneralDeadlines(bad, sys); err == nil {
		t.Error("non-common release must be rejected")
	}
	// Unbounded cores.
	sysU := sys
	sysU.Cores = 0
	if _, err := SolveGeneralDeadlines(task.Set{{ID: 1, Release: 0, Deadline: 1, Workload: 1}}, sysU); err == nil {
		t.Error("unbounded core count must be rejected")
	}
	// Empty set is fine.
	res, err := SolveGeneralDeadlines(task.Set{}, sys)
	if err != nil || res.Energy != 0 {
		t.Errorf("empty: %+v %v", res, err)
	}
	// Zero workloads only.
	res, err = SolveGeneralDeadlines(task.Set{{ID: 1, Release: 0, Deadline: 1, Workload: 0}}, sys)
	if err != nil || res.Energy != 0 {
		t.Errorf("zero work: %+v %v", res, err)
	}
}

func TestGeneralDeadlinesConvergesToUnboundedWithManyCores(t *testing.T) {
	// With as many cores as tasks the heuristic approaches (but cannot
	// beat) the unbounded optimum; the remaining gap comes from its
	// single-speed-per-core simplification.
	r := rand.New(rand.NewSource(42))
	tasks := randomCommonRelease(r, 6)
	sys := boundedSystem(6)
	bounded, err := SolveGeneralDeadlines(tasks, sys)
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := commonrelease.Solve(tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := bounded.Energy / unbounded.Energy
	if ratio < 1-1e-9 {
		t.Fatalf("bounded beats unbounded: ratio %g", ratio)
	}
	if ratio > 1.6 {
		t.Errorf("with one core per task the heuristic should be near-optimal, ratio %g", ratio)
	}
	if math.IsNaN(ratio) {
		t.Fatal("NaN energy")
	}
}
