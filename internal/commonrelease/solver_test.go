package commonrelease

import (
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
