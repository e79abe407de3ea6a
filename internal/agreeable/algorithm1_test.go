package agreeable

import (
	"math"
	"math/rand"
	"testing"

	"sdem/internal/power"
	"sdem/internal/task"
)

// TestAlgorithm1AgreesWithConvexSolver cross-validates the paper's
// literal five-step Algorithm 1 against the package's convex block
// solver: Theorem 4 proves both converge to the same single-block
// optimum (α ≠ 0).
func TestAlgorithm1AgreesWithConvexSolver(t *testing.T) {
	sys := testSystem()
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := randomAgreeable(r, 1+r.Intn(5))
		s, err := newSolver(tasks, sys, power.ModelStatic)
		if err != nil {
			t.Fatal(err)
		}
		blk := s.blockSolve(0, len(s.tasks)-1)
		ref := BlockCostAlgorithm1(s.tasks, sys)
		// Algorithm 1 follows the paper's per-pair boundary quit rules,
		// which can leave a slightly suboptimal boundary value in a pair
		// the convex solver optimizes exactly — so Algorithm 1 may only
		// match or exceed, within a small tolerance.
		if ref < blk.Cost*(1-1e-6) {
			t.Errorf("seed %d: Algorithm 1 %.9g beats convex solver %.9g — convex solver not optimal",
				seed, ref, blk.Cost)
		}
		if ref > blk.Cost*(1+1e-4) {
			t.Errorf("seed %d: Algorithm 1 %.9g diverges above convex solver %.9g",
				seed, ref, blk.Cost)
		}
	}
}

func TestAlgorithm1CommonReleaseInstances(t *testing.T) {
	// Common-release subsets exercise the case-3 branch (tasks spanning
	// the whole busy interval).
	sys := testSystem()
	for seed := int64(30); seed < 38; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		tasks := make(task.Set, n)
		for i := range tasks {
			tasks[i] = task.Task{
				ID:       i,
				Release:  0,
				Deadline: power.Milliseconds(20 + r.Float64()*100),
				Workload: 2e6 + r.Float64()*3e6,
			}
		}
		s, err := newSolver(tasks, sys, power.ModelStatic)
		if err != nil {
			t.Fatal(err)
		}
		blk := s.blockSolve(0, len(s.tasks)-1)
		ref := BlockCostAlgorithm1(s.tasks, sys)
		if ref < blk.Cost*(1-1e-6) || ref > blk.Cost*(1+1e-4) {
			t.Errorf("seed %d: Algorithm 1 %.9g vs convex %.9g", seed, ref, blk.Cost)
		}
	}
}

func TestAlgorithm1Degenerate(t *testing.T) {
	sys := testSystem()
	if got := BlockCostAlgorithm1(nil, sys); got != 0 {
		t.Errorf("empty block cost = %g, want 0", got)
	}
	// Single tight task: alone in its busy interval it runs at the
	// memory-associated critical speed s₁, which the default memory power
	// pushes to s_up, so the interval shrinks to w/s_up inside a window
	// only 14% longer. The block solver must land on that closed form.
	// Algorithm 1's golden-section probes miss so narrow a feasible
	// region and settle on the filled speed, so it may only trail.
	tasks := task.Set{{ID: 1, Release: 0, Deadline: power.Milliseconds(3), Workload: 5e6}}
	s, err := newSolver(tasks, sys, power.ModelStatic)
	if err != nil {
		t.Fatal(err)
	}
	blk := s.blockSolve(0, 0)
	s1 := sys.Core.MemoryCriticalSpeed(sys.Memory, tasks[0].FilledSpeed())
	want := (sys.Memory.Static + sys.Core.Power(s1)) * tasks[0].Workload / s1
	if !almost(blk.Cost, want, 1e-9) {
		t.Errorf("tight single task: block cost %.12g, closed form %.12g", blk.Cost, want)
	}
	if ref := BlockCostAlgorithm1(s.tasks, sys); ref < blk.Cost*(1-1e-6) {
		t.Errorf("tight single task: Algorithm 1 %.9g beats the block solver %.9g", ref, blk.Cost)
	}
}

// taskType is the §5.2 classification of Table 2.
type taskType int

const (
	// typeI tasks execute at their critical speed s₀, strictly inside
	// the busy interval.
	typeI taskType = iota
	// typeII tasks are aligned with the busy interval and execute within
	// [s₀, s₁].
	typeII
)

// classification reports the Table 2 structure of a single-block optimum.
type classification struct {
	// Types[k] classifies the k-th deadline-sorted positive-workload
	// task.
	Types []taskType
	// Speeds[k] is its execution speed.
	Speeds []float64
	// BusyStart and BusyEnd delimit the block's busy interval.
	BusyStart, BusyEnd float64
}

// classifyBlock solves the single-block §5.2 problem for the whole task
// set and classifies every task per Table 2: Type-I tasks run at s₀
// inside the interval, Type-II tasks align with it at speeds within
// [s₀, s₁]. It exists to make the paper's structural claim checkable.
func classifyBlock(tasks task.Set, sys power.System) (*classification, error) {
	s, err := newSolver(tasks, sys, power.ModelStatic)
	if err != nil {
		return nil, err
	}
	if len(s.tasks) == 0 {
		return &classification{}, nil
	}
	blk := s.blockSolve(0, len(s.tasks)-1)
	out := &classification{
		Types:     make([]taskType, len(s.tasks)),
		Speeds:    make([]float64, len(s.tasks)),
		BusyStart: blk.BusyStart,
		BusyEnd:   blk.BusyEnd,
	}
	for k, t := range s.tasks {
		avail := math.Min(t.Deadline, blk.BusyEnd) - math.Max(t.Release, blk.BusyStart)
		_, speed := s.coreEnergy(k, avail)
		out.Speeds[k] = speed
		exec := t.Workload / speed
		if exec < avail*(1-relTol) {
			out.Types[k] = typeI // shorter than its aligned span: runs at s₀
		} else {
			out.Types[k] = typeII
		}
	}
	return out, nil
}

// TestTable2Classification validates the structural claims of the
// paper's Table 2 on the single-block optimum: Type-I tasks run exactly
// at their critical speed s₀ with their execution covered by the busy
// interval; Type-II tasks run aligned with it at speeds within [s₀, s₁].
func TestTable2Classification(t *testing.T) {
	sys := testSystem()
	for seed := int64(50); seed < 62; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := randomAgreeable(r, 1+r.Intn(6))
		cls, err := classifyBlock(tasks, sys)
		if err != nil {
			t.Fatal(err)
		}
		sorted := tasks.Clone()
		sorted.SortByDeadline()
		for k, typ := range cls.Types {
			tk := sorted[k]
			s0 := sys.Core.CriticalSpeed(tk.FilledSpeed())
			s1 := sys.Core.MemoryCriticalSpeed(sys.Memory, tk.FilledSpeed())
			speed := cls.Speeds[k]
			switch typ {
			case typeI:
				if !almost(speed, s0, 1e-6) {
					t.Errorf("seed %d task %d: Type-I speed %.6g != s₀ %.6g", seed, tk.ID, speed, s0)
				}
				// Covered by the busy interval.
				start := max64(tk.Release, cls.BusyStart)
				if start+tk.Workload/speed > cls.BusyEnd+1e-9 {
					t.Errorf("seed %d task %d: Type-I execution escapes the busy interval", seed, tk.ID)
				}
			case typeII:
				if speed < s0*(1-1e-6) || speed > s1*(1+1e-6) {
					t.Errorf("seed %d task %d: Type-II speed %.6g outside [s₀ %.6g, s₁ %.6g]",
						seed, tk.ID, speed, s0, s1)
				}
			}
		}
	}
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
