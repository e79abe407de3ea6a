package commonrelease

import (
	"math"
	"math/rand"
	"testing"

	"sdem/internal/power"
)

// TestSolverReplanAllocFree pins the retained solver's contract: once its
// buffers reach the instance size, a re-plan allocates nothing, under
// every system model of Table 1.
func TestSolverReplanAllocFree(t *testing.T) {
	tasks := randomCommonRelease(rand.New(rand.NewSource(11)), 40)
	alphaZero := testSystem()
	alphaZero.Core.Static = 0
	for _, tc := range []struct {
		name string
		sys  power.System
	}{
		{"alpha_zero", alphaZero},
		{"with_static", testSystem()},
		{"overhead", power.DefaultSystem()},
	} {
		var sv Solver
		if _, err := sv.PlanEndsRel(tasks, tc.sys, nil); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := sv.PlanEndsRel(tasks, tc.sys, nil); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per re-plan, want 0", tc.name, allocs)
		}
	}
}

// TestSolverCriticalSpeedMemoNeverStale pins the retained Solver's s_m
// memo: one Solver alternates PlanEndsRel and MaxNaturalCompletion over
// random systems whose (α, β, λ) change from call to call, in all three
// system models, and every result must carry the bits of a fresh
// Solver's (whose memo is empty) and, for MaxNaturalCompletion, of the
// per-task oracle that re-derives s_m with math.Pow.
func TestSolverCriticalSpeedMemoNeverStale(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cores := []power.Core{power.CortexA57(), power.CortexA7()}
	var sv Solver
	for i := 0; i < 400; i++ {
		sys := power.DefaultSystem()
		sys.Core = cores[r.Intn(len(cores))]
		switch r.Intn(4) {
		case 0:
			sys.Core.Static *= 0.5 + r.Float64()
		case 1:
			sys.Core.Beta *= 0.5 + r.Float64()
		case 2:
			sys.Core.Lambda = []float64{2, 2.5, 3.5}[r.Intn(3)]
			sys.Core.Beta = 0.3 / math.Pow(power.MHz(900), sys.Core.Lambda)
		}
		switch r.Intn(3) {
		case 0:
			sys.Core.BreakEven, sys.Memory.BreakEven = 0, 0
		case 1:
			sys.Core.BreakEven = power.Milliseconds(5 * r.Float64())
		}
		if r.Intn(5) == 0 {
			sys.Core.Static = 0
		}
		tasks := randomCommonRelease(r, 1+r.Intn(30))
		var horizon, want float64
		for _, tk := range tasks {
			horizon = math.Max(horizon, tk.Deadline-tk.Release)
		}
		for _, tk := range tasks {
			want = math.Max(want, naturalCompletionOracle(tk, sys, horizon))
		}
		if got := sv.MaxNaturalCompletion(tasks, sys); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d (model %d): MaxNaturalCompletion %.17g, oracle %.17g", i, sys.Model(), got, want)
		}
		if fresh := new(Solver).MaxNaturalCompletion(tasks, sys); math.Float64bits(fresh) != math.Float64bits(want) {
			t.Fatalf("call %d (model %d): fresh MaxNaturalCompletion %.17g, oracle %.17g", i, sys.Model(), fresh, want)
		}
		got, err := sv.PlanEndsRel(tasks, sys, nil)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		want2, err := new(Solver).PlanEndsRel(tasks, sys, nil)
		if err != nil {
			t.Fatalf("call %d: fresh: %v", i, err)
		}
		for j := range want2 {
			if math.Float64bits(got[j]) != math.Float64bits(want2[j]) {
				t.Fatalf("call %d (model %d) task %d: retained end %.17g, fresh %.17g", i, sys.Model(), j, got[j], want2[j])
			}
		}
	}
}
