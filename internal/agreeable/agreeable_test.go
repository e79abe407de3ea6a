package agreeable

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"sdem/internal/commonrelease"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

func testSystem() power.System {
	sys := power.DefaultSystem()
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0
	return sys
}

// randomAgreeable draws an agreeable-deadline set: releases ascend and
// deadlines are forced nondecreasing.
func randomAgreeable(r *rand.Rand, n int) task.Set {
	s := make(task.Set, n)
	var rel, dPrev float64
	for i := range s {
		rel += r.Float64() * power.Milliseconds(30)
		d := rel + power.Milliseconds(10+r.Float64()*110)
		if d < dPrev {
			d = dPrev
		}
		dPrev = d
		s[i] = task.Task{ID: i, Release: rel, Deadline: d, Workload: 2e6 + r.Float64()*3e6}
	}
	return s
}

// bruteForce enumerates every contiguous partition of the deadline-sorted
// tasks into blocks, grid-searches each block's busy interval, and returns
// the best total cost. Independent of the solver's convex machinery.
func bruteForce(tasks task.Set, sys power.System, alphaZero bool, grid int, blockExtra float64) float64 {
	sorted := tasks.Clone()
	sorted.SortByDeadline()
	n := len(sorted)
	coreE := func(t task.Task, avail float64) float64 {
		if avail <= 0 {
			return math.Inf(1)
		}
		speed := t.Workload / avail
		if sys.Core.SpeedMax > 0 && speed > sys.Core.SpeedMax*(1+1e-12) {
			return math.Inf(1)
		}
		if !alphaZero {
			speed = sys.Core.CriticalSpeed(speed)
		}
		exec := t.Workload / speed
		e := sys.Core.Dynamic(speed) * exec
		if !alphaZero {
			e += sys.Core.Static * exec
		}
		return e
	}
	blockCost := func(from, to int) float64 {
		first, last := sorted[from], sorted[to]
		best := math.Inf(1)
		for a := 0; a <= grid; a++ {
			bs := first.Release + (first.Deadline-first.Release)*float64(a)/float64(grid)
			for b := 0; b <= grid; b++ {
				be := last.Release + (last.Deadline-last.Release)*float64(b)/float64(grid)
				if be <= bs {
					continue
				}
				e := sys.Memory.Static * (be - bs)
				for k := from; k <= to; k++ {
					e += coreE(sorted[k], math.Min(sorted[k].Deadline, be)-math.Max(sorted[k].Release, bs))
				}
				if e < best {
					best = e
				}
			}
		}
		return best
	}
	memo := make(map[[2]int]float64)
	cost := func(from, to int) float64 {
		key := [2]int{from, to}
		if v, ok := memo[key]; ok {
			return v
		}
		v := blockCost(from, to)
		memo[key] = v
		return v
	}
	// DP over partitions (equivalent to full enumeration).
	opt := make([]float64, n+1)
	for q := 1; q <= n; q++ {
		opt[q] = math.Inf(1)
		for p := 0; p < q; p++ {
			if c := opt[p] + cost(p, q-1) + blockExtra; c < opt[q] {
				opt[q] = c
			}
		}
	}
	return opt[n]
}

func totalCost(sol *Solution, blockExtra float64) float64 {
	var c float64
	for _, b := range sol.Blocks {
		c += b.Cost + blockExtra
	}
	return c
}

func TestSolveAlphaZeroMatchesBruteForce(t *testing.T) {
	sys := testSystem()
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := randomAgreeable(r, 2+r.Intn(5))
		sol, err := solve(nil, power.ModelAlphaZero, tasks, sys, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := bruteForce(tasks, sys, true, 160, 0)
		got := totalCost(sol, 0)
		if got > ref*(1+1e-6) {
			t.Errorf("seed %d: solver cost %.9g worse than brute force %.9g", seed, got, ref)
		}
		if ref > got*(1+2e-2) {
			t.Errorf("seed %d: brute force %.9g much worse than solver %.9g (grid too coarse or solver wrong)",
				seed, ref, got)
		}
		if err := sol.Schedule.Validate(tasks, schedule.ValidateOptions{NonPreemptive: true, SpeedMax: sys.Core.SpeedMax}); err != nil {
			t.Errorf("seed %d: invalid schedule: %v", seed, err)
		}
	}
}

func TestSolveWithStaticMatchesBruteForce(t *testing.T) {
	sys := testSystem()
	for seed := int64(20); seed < 28; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := randomAgreeable(r, 2+r.Intn(5))
		sol, err := solve(nil, power.ModelStatic, tasks, sys, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := bruteForce(tasks, sys, false, 300, 0)
		got := totalCost(sol, 0)
		if got > ref*(1+1e-6) {
			t.Errorf("seed %d: solver cost %.9g worse than brute force %.9g", seed, got, ref)
		}
		if ref > got*(1+2e-2) {
			t.Errorf("seed %d: brute force %.9g much worse than solver %.9g", seed, ref, got)
		}
		if err := sol.Schedule.Validate(tasks, schedule.ValidateOptions{NonPreemptive: true, SpeedMax: sys.Core.SpeedMax}); err != nil {
			t.Errorf("seed %d: invalid schedule: %v", seed, err)
		}
	}
}

func TestBlockSolverAgreesWithPairEnumeration(t *testing.T) {
	// The convex block solver and the literal Eq. (12)/(13)/(14) pair
	// enumeration must find the same single-block optimum (α = 0).
	sys := testSystem()
	sys.Core.Static = 0
	for seed := int64(40); seed < 52; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := randomAgreeable(r, 1+r.Intn(6))
		s, err := newSolver(tasks, sys, power.ModelAlphaZero)
		if err != nil {
			t.Fatal(err)
		}
		blk := s.blockSolve(0, len(s.tasks)-1)
		ref := BlockCostPairs(s.tasks, sys)
		if !almost(blk.Cost, ref, 1e-9) {
			t.Errorf("seed %d: block solver %.12g != pair enumeration %.12g", seed, blk.Cost, ref)
		}
	}
}

func TestAgreeableMatchesCommonReleaseOnSharedInputs(t *testing.T) {
	// Common-release sets are agreeable; both optimal solvers must agree.
	sys := testSystem()
	for seed := int64(60); seed < 68; seed++ {
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
		a, err := solve(nil, power.ModelStatic, tasks, sys, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := commonrelease.Solve(tasks, sys, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(a.Energy, b.Energy, 1e-5) {
			t.Errorf("seed %d: agreeable DP %.9g != common-release optimum %.9g", seed, a.Energy, b.Energy)
		}
	}
}

func TestStaticReducesToAlphaZero(t *testing.T) {
	sys := testSystem()
	sys.Core.Static = 0
	r := rand.New(rand.NewSource(77))
	tasks := randomAgreeable(r, 5)
	a, err := solve(nil, power.ModelAlphaZero, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := solve(nil, power.ModelStatic, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(a.Energy, b.Energy, 1e-9) {
		t.Errorf("α=0: §5.1 %.9g != §5.2 %.9g", a.Energy, b.Energy)
	}
}

func TestBlockSplitVsMerge(t *testing.T) {
	// Two clusters far apart: the optimum uses two blocks so the memory
	// sleeps in between; verify the DP splits, and that the busy
	// intervals are disjoint and ordered.
	sys := testSystem()
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: power.Milliseconds(30), Workload: 3e6},
		{ID: 2, Release: power.Milliseconds(5), Deadline: power.Milliseconds(35), Workload: 3e6},
		{ID: 3, Release: 0.5, Deadline: 0.5 + power.Milliseconds(30), Workload: 3e6},
		{ID: 4, Release: 0.5 + power.Milliseconds(5), Deadline: 0.5 + power.Milliseconds(35), Workload: 3e6},
	}
	sol, err := solve(nil, power.ModelStatic, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Blocks) != 2 {
		t.Fatalf("expected 2 blocks for far-apart clusters, got %d", len(sol.Blocks))
	}
	if sol.Blocks[0].BusyEnd > sol.Blocks[1].BusyStart {
		t.Error("blocks must be time-ordered and disjoint")
	}
	b := schedule.Audit(sol.Schedule, sys)
	if b.MemorySleep < 0.3 {
		t.Errorf("memory should sleep most of the inter-cluster gap, slept %g s", b.MemorySleep)
	}
}

func TestOverheadBlockMerging(t *testing.T) {
	// Two clusters with a modest gap: with free transitions the DP
	// splits; with a large memory break-even the per-block transition
	// charge forces a merge (or at least never increases the block
	// count).
	gap := power.Milliseconds(50)
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: power.Milliseconds(40), Workload: 3e6},
		{ID: 2, Release: gap + power.Milliseconds(40), Deadline: gap + power.Milliseconds(80), Workload: 3e6},
	}
	sysFree := testSystem()
	free, err := solve(nil, power.ModelStatic, tasks, sysFree, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(free.Blocks) != 2 {
		t.Fatalf("free transitions should split into 2 blocks, got %d", len(free.Blocks))
	}

	sysCostly := power.DefaultSystem()
	sysCostly.Memory.BreakEven = 0.5 // prohibitive: half a second
	sysCostly.Core.BreakEven = 0
	costly, err := solve(nil, power.ModelOverhead, tasks, sysCostly, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(costly.Blocks) != 1 {
		t.Errorf("prohibitive ξ_m should merge into 1 block, got %d", len(costly.Blocks))
	}
}

func TestOverheadReducesToStaticWhenFree(t *testing.T) {
	sys := testSystem()
	r := rand.New(rand.NewSource(90))
	tasks := randomAgreeable(r, 5)
	a, err := solve(nil, power.ModelOverhead, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := solve(nil, power.ModelStatic, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(totalCost(a, 0), totalCost(b, 0), 1e-9) {
		t.Errorf("ξ=0 overhead solver %.9g != §5.2 %.9g", totalCost(a, 0), totalCost(b, 0))
	}
}

func TestSolveDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tasks := randomAgreeable(r, 4)

	sysZ := testSystem()
	sysZ.Core.Static = 0
	a, _ := SolveCtx(nil, tasks, sysZ, nil)
	b, _ := solve(nil, power.ModelAlphaZero, tasks, sysZ, nil)
	if !almost(a.Energy, b.Energy, 1e-12) {
		t.Error("Solve should dispatch to the §5.1 scheme")
	}

	sysS := testSystem()
	a, _ = SolveCtx(nil, tasks, sysS, nil)
	c, _ := solve(nil, power.ModelStatic, tasks, sysS, nil)
	if !almost(a.Energy, c.Energy, 1e-12) {
		t.Error("Solve should dispatch to the §5.2 scheme")
	}

	sysO := power.DefaultSystem()
	a, _ = SolveCtx(nil, tasks, sysO, nil)
	d, _ := solve(nil, power.ModelOverhead, tasks, sysO, nil)
	if !almost(a.Energy, d.Energy, 1e-12) {
		t.Error("Solve should dispatch to the §7 scheme")
	}
}

func TestErrorsAndEdges(t *testing.T) {
	sys := testSystem()
	// Nested (non-agreeable) set rejected.
	nested := task.Set{
		{ID: 1, Release: 0, Deadline: 1, Workload: 1e6},
		{ID: 2, Release: 0.1, Deadline: 0.5, Workload: 1e6},
	}
	if _, err := solve(nil, power.ModelStatic, nested, sys, nil); err == nil {
		t.Error("non-agreeable set must be rejected")
	}
	// Empty set.
	sol, err := solve(nil, power.ModelStatic, task.Set{}, sys, nil)
	if err != nil || sol.Energy != 0 || len(sol.Blocks) != 0 {
		t.Errorf("empty set: %+v, %v", sol, err)
	}
	// Zero workloads only.
	zeros := task.Set{{ID: 1, Release: 0, Deadline: 1, Workload: 0}}
	sol, err = solve(nil, power.ModelAlphaZero, zeros, sys, nil)
	if err != nil || sol.Energy != 0 {
		t.Errorf("zero workloads: %+v, %v", sol, err)
	}
	// Infeasible at s_up.
	infeasible := task.Set{{ID: 1, Release: 0, Deadline: 1e-9, Workload: 1e9}}
	if _, err := solve(nil, power.ModelStatic, infeasible, sys, nil); err == nil {
		t.Error("infeasible set must be rejected")
	}
}

func TestLemma6BusyIntervalGrowsWithTasks(t *testing.T) {
	// Lemma 6: adding a task to a block never shrinks the optimal busy
	// interval (aligned tasks settle between s_0 and s_1).
	sys := testSystem()
	r := rand.New(rand.NewSource(123))
	tasks := make(task.Set, 6)
	for i := range tasks {
		tasks[i] = task.Task{ID: i, Release: 0, Deadline: power.Milliseconds(100), Workload: 2e6 + r.Float64()*3e6}
	}
	prev := 0.0
	for n := 1; n <= len(tasks); n++ {
		s, err := newSolver(tasks[:n], sys, power.ModelStatic)
		if err != nil {
			t.Fatal(err)
		}
		blk := s.blockSolve(0, n-1)
		busy := blk.BusyEnd - blk.BusyStart
		if busy < prev-1e-9 {
			t.Errorf("n=%d: busy interval %.9g shrank below %.9g", n, busy, prev)
		}
		prev = busy
	}
}

func almost(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// countdownCtx is a context that reports cancellation from its n-th Err
// poll on, so a test can cancel a solve at an exact checkpoint.
type countdownCtx struct {
	context.Context
	polls, n int
}

func (c *countdownCtx) Err() error {
	if c.polls++; c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestSolveCtxPollsEveryBlock checks cancellation is polled per block
// solve, not only per DP row: after the cancelling poll no further block
// is solved, so blocks solved stay below the polls answered.
func TestSolveCtxPollsEveryBlock(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tasks := randomAgreeable(r, 30)
	for _, n := range []int{1, 2, 10, 50} {
		ctx := &countdownCtx{Context: context.Background(), n: n}
		rec := telemetry.New()
		if _, err := SolveCtx(ctx, tasks, testSystem(), rec); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at poll %d: err = %v, want context.Canceled", n, err)
		}
		if solved := rec.CounterValue("sdem.solver.agr.block_solves", ""); solved >= int64(n) {
			t.Errorf("cancel at poll %d: %d blocks solved", n, solved)
		}
	}
}

// TestSolveAgreeableLarge runs the DP at a size the golden-section block
// solver could not reach in a test budget, and audits the result.
func TestSolveAgreeableLarge(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	tasks := randomAgreeable(r, 60)
	for _, sys := range []power.System{testSystem(), power.DefaultSystem()} {
		sol, err := SolveCtx(nil, tasks, sys, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sol.Schedule.Validate(tasks, schedule.ValidateOptions{NonPreemptive: true, SpeedMax: sys.Core.SpeedMax}); err != nil {
			t.Fatalf("invalid schedule: %v", err)
		}
		if e := schedule.Audit(sol.Schedule, sys).Total(); !almost(e, sol.Energy, 1e-12) {
			t.Errorf("audited energy %.12g, reported %.12g", e, sol.Energy)
		}
		if sys.Memory.BreakEven == 0 {
			if c := totalCost(sol, 0); !almost(c, sol.Energy, 1e-9) {
				t.Errorf("DP cost %.12g, audited energy %.12g", c, sol.Energy)
			}
		}
	}
}
