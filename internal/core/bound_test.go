package core

import (
	"math/rand"
	"testing"

	"sdem/internal/baseline"
	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/task"
	"sdem/internal/workload"
)

func TestLowerBoundBelowOfflineOptimum(t *testing.T) {
	s := sys(true, false)
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		tasks := make(task.Set, n)
		for i := range tasks {
			tasks[i] = task.Task{
				ID:       i,
				Release:  0,
				Deadline: power.Milliseconds(10 + r.Float64()*110),
				Workload: 2e6 + r.Float64()*3e6,
			}
		}
		lb := LowerBound(tasks, s)
		if lb <= 0 {
			t.Fatalf("seed %d: bound must be positive, got %g", seed, lb)
		}
		sol, err := SolveCtx(nil, tasks, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Energy < lb*(1-1e-9) {
			t.Errorf("seed %d: optimum %.9g below certified bound %.9g", seed, sol.Energy, lb)
		}
	}
}

func TestLowerBoundBelowEverySchedulerOnGeneralSets(t *testing.T) {
	s := sys(true, false)
	for seed := int64(20); seed < 26; seed++ {
		tasks, err := workload.Synthetic(workload.SyntheticConfig{N: 25}, seed)
		if err != nil {
			t.Fatal(err)
		}
		lb := LowerBound(tasks, s)
		on, err := online.Schedule(tasks, s, online.Options{Cores: 8})
		if err != nil {
			t.Fatal(err)
		}
		mbkp, err := baseline.MBKP(tasks, s, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		race, err := baseline.RaceToIdle(tasks, s, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, e := range map[string]float64{"SDEM-ON": on.Energy, "MBKP": mbkp.Energy, "race": race.Energy} {
			if e < lb*(1-1e-9) {
				t.Errorf("seed %d: %s energy %.9g below bound %.9g", seed, name, e, lb)
			}
		}
	}
}

func TestLowerBoundTightForSingleTask(t *testing.T) {
	// One task, huge window, no overhead: the optimum runs at the
	// memory-associated critical speed; the bound uses the core critical
	// speed plus the fastest-possible memory occupancy, so it is below
	// but in the same decade.
	s := sys(true, false)
	tasks := task.Set{{ID: 1, Release: 0, Deadline: 1, Workload: 5e6}}
	lb := LowerBound(tasks, s)
	sol, err := SolveCtx(nil, tasks, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 || lb > sol.Energy {
		t.Fatalf("bound %g vs optimum %g", lb, sol.Energy)
	}
	if sol.Energy > lb*10 {
		t.Errorf("bound too loose: optimum %g vs bound %g", sol.Energy, lb)
	}
}

func TestWeightedDisjointWindows(t *testing.T) {
	type iv = window
	cases := []struct {
		name string
		ivs  []iv
		want float64
	}{
		{"empty", nil, 0},
		{"single", []iv{{0, 1, 0.5}}, 0.5},
		{"all overlapping", []iv{{0, 1, 0.3}, {0.2, 0.9, 0.5}, {0.1, 1.1, 0.2}}, 0.5},
		{"two disjoint", []iv{{0, 1, 0.3}, {2, 3, 0.4}}, 0.7},
		{"classic weighted choice", []iv{{0, 3, 0.5}, {0, 1, 0.2}, {1.5, 2.5, 0.2}}, 0.5},
		{"chain beats heavy", []iv{{0, 2, 0.3}, {0, 0.9, 0.25}, {1, 1.9, 0.25}}, 0.5},
		{"touching endpoints disjoint", []iv{{0, 1, 0.2}, {1, 2, 0.2}}, 0.4},
	}
	for _, tc := range cases {
		if got := weightedDisjointWindows(tc.ivs); got != tc.want {
			t.Errorf("%s: WIS = %g, want %g", tc.name, got, tc.want)
		}
	}
}

func TestLowerBoundZeroWork(t *testing.T) {
	s := sys(true, false)
	if lb := LowerBound(task.Set{{ID: 1, Release: 0, Deadline: 1, Workload: 0}}, s); lb != 0 {
		t.Errorf("zero-work bound = %g, want 0", lb)
	}
	if lb := LowerBound(task.Set{}, s); lb != 0 {
		t.Errorf("empty bound = %g, want 0", lb)
	}
}

// TestSolverOrderingChain fuzzes the global energy ordering every theory
// result implies: LowerBound ≤ offline optimal ≤ SDEM-ON ≤ MBKPS ≤ MBKP
// on agreeable sets (offline-solvable and online-schedulable alike).
func TestSolverOrderingChain(t *testing.T) {
	s := sys(true, false)
	for seed := int64(100); seed < 112; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		tasks := make(task.Set, n)
		var rel, dPrev float64
		for i := range tasks {
			rel += r.Float64() * power.Milliseconds(60)
			d := rel + power.Milliseconds(20+r.Float64()*100)
			if d < dPrev {
				d = dPrev
			}
			dPrev = d
			tasks[i] = task.Task{ID: i, Release: rel, Deadline: d, Workload: 2e6 + r.Float64()*3e6}
		}
		lb := LowerBound(tasks, s)
		off, err := SolveCtx(nil, tasks, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		on, err := online.Schedule(tasks, s, online.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mbkps, err := baseline.MBKPS(tasks, s, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		mbkp, err := baseline.MBKP(tasks, s, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		const eps = 1e-6
		chain := []struct {
			name string
			e    float64
		}{
			{"lower bound", lb},
			{"offline optimal", off.Energy},
			{"SDEM-ON", on.Energy},
			{"MBKPS", mbkps.Energy},
			{"MBKP", mbkp.Energy},
		}
		for i := 1; i < len(chain); i++ {
			if chain[i].e < chain[i-1].e*(1-eps) {
				t.Errorf("seed %d: %s (%.9g) below %s (%.9g)",
					seed, chain[i].name, chain[i].e, chain[i-1].name, chain[i-1].e)
			}
		}
	}
}
