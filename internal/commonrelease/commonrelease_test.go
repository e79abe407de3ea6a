package commonrelease

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// testSystem returns the paper's default platform with transitions free
// (the §4 model).
func testSystem() power.System {
	sys := power.DefaultSystem()
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0
	return sys
}

// randomCommonRelease draws n tasks released at 0 with the paper's §8.1.2
// parameters: workloads in [2,5]e6 cycles, deadlines in [10,120] ms.
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

// sweepBest densely sweeps the busy length L of the aligned-structure
// schedule and returns the best audited energy found. It independently
// reimplements the structure (tasks start at release; those whose natural
// completion exceeds L align to L) so it cross-checks the solver's case
// analysis and closed forms.
func sweepBest(t *testing.T, tasks task.Set, sys power.System, natural func(task.Task) float64, samples int) float64 {
	t.Helper()
	release := tasks[0].Release
	var horizon float64
	type item struct {
		id   int
		w, c float64
	}
	var items []item
	for _, tk := range tasks {
		horizon = math.Max(horizon, tk.Deadline-release)
		if tk.Workload == 0 {
			continue
		}
		items = append(items, item{tk.ID, tk.Workload, tk.Workload / natural(tk)})
	}
	var cmax, wmax float64
	for _, it := range items {
		cmax = math.Max(cmax, it.c)
		wmax = math.Max(wmax, it.w)
	}
	lmin := 1e-12
	if sys.Core.SpeedMax > 0 {
		lmin = wmax / sys.Core.SpeedMax
	}
	best := math.Inf(1)
	for i := 0; i <= samples; i++ {
		L := lmin + (cmax-lmin)*float64(i)/float64(samples)
		s := schedule.New(len(items), release, release+horizon)
		feasible := true
		for ci, it := range items {
			end := it.c
			if end >= L {
				end = L
			}
			speed := it.w / end
			if sys.Core.SpeedMax > 0 && speed > sys.Core.SpeedMax*(1+1e-9) {
				feasible = false
				break
			}
			s.Add(ci, schedule.Segment{TaskID: it.id, Start: release, End: release + end, Speed: speed})
		}
		if !feasible {
			continue
		}
		s.Normalize()
		if e := schedule.Audit(s, sys).Total(); e < best {
			best = e
		}
	}
	return best
}

func TestSolveAlphaZeroSingleTask(t *testing.T) {
	sys := testSystem()
	tasks := task.Set{{ID: 1, Release: 0, Deadline: power.Milliseconds(50), Workload: 3e6}}
	sol, err := solve(power.ModelAlphaZero, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Closed form: L* = (β(λ−1)w^λ/α_m)^{1/λ}, clamped to [w/s_up, d].
	lstar := math.Pow(sys.Core.Beta*(sys.Core.Lambda-1)*math.Pow(3e6, 3)/sys.Memory.Static, 1.0/3)
	want := math.Max(lstar, 3e6/sys.Core.SpeedMax)
	if !almost(sol.BusyLen, want, 1e-9) {
		t.Errorf("BusyLen = %g, want %g", sol.BusyLen, want)
	}
	if !almost(sol.Delta, power.Milliseconds(50)-want, 1e-9) {
		t.Errorf("Delta = %g, want %g", sol.Delta, power.Milliseconds(50)-want)
	}
	if err := sol.Schedule.Validate(tasks, schedule.ValidateOptions{NonPreemptive: true, SpeedMax: sys.Core.SpeedMax}); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestSolveAlphaZeroMatchesSweep(t *testing.T) {
	sys := testSystem()
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := randomCommonRelease(r, 1+r.Intn(8))
		sol, err := solve(power.ModelAlphaZero, tasks, sys, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sysZ := sys
		sysZ.Core.Static = 0
		ref := sweepBest(t, tasks, sysZ, func(tk task.Task) float64 { return tk.FilledSpeed() }, 4000)
		if sol.Energy > ref*(1+1e-6) {
			t.Errorf("seed %d: solver %.9g worse than sweep %.9g", seed, sol.Energy, ref)
		}
		if err := sol.Schedule.Validate(tasks, schedule.ValidateOptions{NonPreemptive: true, SpeedMax: sys.Core.SpeedMax}); err != nil {
			t.Errorf("seed %d: invalid schedule: %v", seed, err)
		}
	}
}

func TestSolveWithStaticMatchesSweep(t *testing.T) {
	sys := testSystem()
	for seed := int64(100); seed < 112; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := randomCommonRelease(r, 1+r.Intn(8))
		sol, err := solve(power.ModelStatic, tasks, sys, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := sweepBest(t, tasks, sys, func(tk task.Task) float64 {
			return sys.Core.CriticalSpeed(tk.FilledSpeed())
		}, 4000)
		if sol.Energy > ref*(1+1e-6) {
			t.Errorf("seed %d: solver %.9g worse than sweep %.9g", seed, sol.Energy, ref)
		}
		if err := sol.Schedule.Validate(tasks, schedule.ValidateOptions{NonPreemptive: true, SpeedMax: sys.Core.SpeedMax}); err != nil {
			t.Errorf("seed %d: invalid schedule: %v", seed, err)
		}
	}
}

// TestSolveWithStaticPerturbation checks optimality in a strictly larger
// space than the L-parameterization: every task's completion time is
// individually perturbed around the solution and the audited energy must
// not improve.
func TestSolveWithStaticPerturbation(t *testing.T) {
	sys := testSystem()
	r := rand.New(rand.NewSource(7))
	tasks := randomCommonRelease(r, 6)
	sol, err := solve(power.ModelStatic, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := sol.Schedule
	ends := make(map[int]float64) // task ID → completion
	for _, segs := range base.Cores {
		for _, sg := range segs {
			ends[sg.TaskID] = sg.End
		}
	}
	for _, tk := range tasks {
		for _, f := range []float64{0.9, 0.97, 1.03, 1.1} {
			e := ends[tk.ID] * f
			if e > tk.Deadline || tk.Workload/e > sys.Core.SpeedMax {
				continue
			}
			s := schedule.New(len(tasks), base.Start, base.End)
			core := 0
			for _, other := range tasks {
				end := ends[other.ID]
				if other.ID == tk.ID {
					end = e
				}
				s.Add(core, schedule.Segment{TaskID: other.ID, Start: 0, End: end, Speed: other.Workload / end})
				core++
			}
			s.Normalize()
			if got := schedule.Audit(s, sys).Total(); got < sol.Energy*(1-1e-9) {
				t.Errorf("perturbing task %d completion by %g improves energy: %.9g < %.9g",
					tk.ID, f, got, sol.Energy)
			}
		}
	}
}

func TestSolveWithStaticReducesToAlphaZero(t *testing.T) {
	// With α = 0 the critical speed degenerates to the filled speed and
	// §4.2 must coincide with §4.1.
	sys := testSystem()
	sys.Core.Static = 0
	for seed := int64(200); seed < 206; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := randomCommonRelease(r, 1+r.Intn(6))
		a, err := solve(power.ModelAlphaZero, tasks, sys, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := solve(power.ModelStatic, tasks, sys, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(a.Energy, b.Energy, 1e-9) || !almost(a.BusyLen, b.BusyLen, 1e-9) {
			t.Errorf("seed %d: §4.1 (E=%g L=%g) != §4.2 with α=0 (E=%g L=%g)",
				seed, a.Energy, a.BusyLen, b.Energy, b.BusyLen)
		}
	}
}

func TestScansAgreeWithFullScan(t *testing.T) {
	sys := testSystem()
	sys.Core.SpeedMax = 0 // the literal paper scans assume no binding cap
	for seed := int64(300); seed < 330; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := randomCommonRelease(r, 2+r.Intn(7))
		full, err := solve(power.ModelAlphaZero, tasks, sys, nil)
		if err != nil {
			t.Fatal(err)
		}
		c2, l2, err := Theorem2Scan(tasks, sys)
		if err != nil {
			t.Fatalf("seed %d: Theorem2Scan: %v", seed, err)
		}
		cb, lb, err := BinarySearchScan(tasks, sys, nil)
		if err != nil {
			t.Fatalf("seed %d: BinarySearchScan: %v", seed, err)
		}
		if !almost(l2, full.BusyLen, 1e-9) {
			t.Errorf("seed %d: Theorem2Scan L=%g (case %d), full scan L=%g (case %d)",
				seed, l2, c2, full.BusyLen, full.Case)
		}
		if !almost(lb, l2, 1e-9) || cb != c2 {
			t.Errorf("seed %d: binary search (case %d, L=%g) != linear scan (case %d, L=%g)",
				seed, cb, lb, c2, l2)
		}
	}
}

func TestDeltaMonotoneAcrossCases(t *testing.T) {
	// Eq. (5): Δ_mi strictly increases with the case index, i.e. the
	// unconstrained busy-length minimizer decreases.
	sys := testSystem()
	r := rand.New(rand.NewSource(42))
	tasks := randomCommonRelease(r, 8)
	in, err := normalize(tasks, sys, power.ModelAlphaZero, nil)
	if err != nil {
		t.Fatal(err)
	}
	cds := in.cases(0)
	for i := 1; i < len(cds); i++ {
		if cds[i].lstar >= cds[i-1].lstar {
			t.Errorf("case %d: L* %g not below case %d's %g", i+1, cds[i].lstar, i, cds[i-1].lstar)
		}
	}
}

func TestClosedFormMatchesAudit(t *testing.T) {
	// The analytic E_i at the winning case must equal the audited energy
	// of the constructed schedule (α=0 and α≠0).
	sysZ := testSystem()
	r := rand.New(rand.NewSource(5))
	tasks := randomCommonRelease(r, 5)

	sol, err := solve(power.ModelAlphaZero, tasks, sysZ, nil)
	if err != nil {
		t.Fatal(err)
	}
	inZ, _ := normalize(tasks, sysZ, power.ModelAlphaZero, nil)
	inZ.sys.Core.Static = 0
	cdZ := inZ.cases(0)[sol.Case-1]
	if e := inZ.energyAt(cdZ, sol.Case-1, sol.BusyLen, 0); !almost(e, sol.Energy, 1e-9) {
		t.Errorf("α=0: closed form %g != audit %g", e, sol.Energy)
	}

	sol2, err := solve(power.ModelStatic, tasks, sysZ, nil)
	if err != nil {
		t.Fatal(err)
	}
	in2, _ := normalize(tasks, sysZ, power.ModelStatic, nil)
	cd2 := in2.cases(sysZ.Core.Static)[sol2.Case-1]
	if e := in2.energyAt(cd2, sol2.Case-1, sol2.BusyLen, sysZ.Core.Static); !almost(e, sol2.Energy, 1e-9) {
		t.Errorf("α≠0: closed form %g != audit %g", e, sol2.Energy)
	}
}

func TestSpeedCapBinds(t *testing.T) {
	// A heavy task in a long window: without the cap the solver would
	// compress everything into a very short busy interval; the cap must
	// keep every speed within s_up.
	sys := testSystem()
	sys.Memory.Static = 400 // extreme leakage favours maximal compression
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: power.Milliseconds(100), Workload: 1.8e8},
		{ID: 2, Release: 0, Deadline: power.Milliseconds(110), Workload: 5e6},
	}
	sol, err := solve(power.ModelStatic, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Schedule.Validate(tasks, schedule.ValidateOptions{NonPreemptive: true, SpeedMax: sys.Core.SpeedMax}); err != nil {
		t.Fatalf("capped schedule invalid: %v", err)
	}
	wantL := 1.8e8 / sys.Core.SpeedMax
	if !almost(sol.BusyLen, wantL, 1e-6) {
		t.Errorf("BusyLen = %g, want cap-bound %g", sol.BusyLen, wantL)
	}
}

func TestEdgeCases(t *testing.T) {
	sys := testSystem()
	// Empty set.
	sol, err := solve(power.ModelAlphaZero, task.Set{}, sys, nil)
	if err != nil || sol.Energy != 0 {
		t.Errorf("empty set: sol=%+v err=%v", sol, err)
	}
	// All-zero workloads.
	zero := task.Set{{ID: 1, Release: 0, Deadline: 1, Workload: 0}}
	sol, err = solve(power.ModelStatic, zero, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Energy != 0 || sol.Case != 0 {
		t.Errorf("zero workload: E=%g case=%d", sol.Energy, sol.Case)
	}
	// Non-common release is rejected.
	bad := task.Set{
		{ID: 1, Release: 0, Deadline: 1, Workload: 1e6},
		{ID: 2, Release: 0.5, Deadline: 1, Workload: 1e6},
	}
	if _, err := solve(power.ModelAlphaZero, bad, sys, nil); err == nil {
		t.Error("non-common release must be rejected")
	}
	// Infeasible at s_up.
	inf := task.Set{{ID: 1, Release: 0, Deadline: 1e-6, Workload: 1e9}}
	if _, err := solve(power.ModelStatic, inf, sys, nil); err == nil {
		t.Error("infeasible instance must be rejected")
	}
	// α_m = 0: every task at filled speed.
	sysNoMem := sys
	sysNoMem.Memory.Static = 0
	tasks := task.Set{{ID: 1, Release: 0, Deadline: power.Milliseconds(100), Workload: 3e6}}
	sol, err = solve(power.ModelAlphaZero, tasks, sysNoMem, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.BusyLen, power.Milliseconds(100), 1e-9) {
		t.Errorf("α_m=0: BusyLen = %g, want the full window", sol.BusyLen)
	}
}

func TestSolveDispatch(t *testing.T) {
	tasks := task.Set{{ID: 1, Release: 0, Deadline: power.Milliseconds(60), Workload: 3e6}}

	sysZ := testSystem()
	sysZ.Core.Static = 0
	a, err := Solve(tasks, sysZ, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := solve(power.ModelAlphaZero, tasks, sysZ, nil)
	if !almost(a.Energy, b.Energy, 1e-12) {
		t.Error("Solve should dispatch to the §4.1 scheme for α=0")
	}

	sysS := testSystem()
	a, err = Solve(tasks, sysS, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := solve(power.ModelStatic, tasks, sysS, nil)
	if !almost(a.Energy, c.Energy, 1e-12) {
		t.Error("Solve should dispatch to the §4.2 scheme for α≠0")
	}

	sysO := power.DefaultSystem() // nonzero break-even times
	a, err = Solve(tasks, sysO, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := solve(power.ModelOverhead, tasks, sysO, nil)
	if !almost(a.Energy, d.Energy, 1e-12) {
		t.Error("Solve should dispatch to the §7 scheme for ξ≠0")
	}
}

func TestCommonDeadlineSpecialCase(t *testing.T) {
	// §4.2 notes that with one shared feasible region the optimum is case
	// 1 directly: everything aligned.
	sys := testSystem()
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: power.Milliseconds(80), Workload: 2e6},
		{ID: 2, Release: 0, Deadline: power.Milliseconds(80), Workload: 3e6},
		{ID: 3, Release: 0, Deadline: power.Milliseconds(80), Workload: 5e6},
	}
	sol, err := solve(power.ModelStatic, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All three tasks must finish at the same time (aligned) because
	// their critical completions differ but leaving the two light tasks
	// at critical speed... verify against sweep instead of asserting the
	// exact structure.
	ref := sweepBest(t, tasks, sys, func(tk task.Task) float64 {
		return sys.Core.CriticalSpeed(tk.FilledSpeed())
	}, 6000)
	if sol.Energy > ref*(1+1e-6) {
		t.Errorf("common-deadline: solver %g worse than sweep %g", sol.Energy, ref)
	}
}

func almost(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestScansHandleDuplicateDeadlines(t *testing.T) {
	// Equal deadlines create empty case domains; the scans must still
	// agree with the full scan (Theorem 2's uniqueness argument).
	sys := testSystem()
	sys.Core.SpeedMax = 0
	d := power.Milliseconds(60)
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: d, Workload: 2e6},
		{ID: 2, Release: 0, Deadline: d, Workload: 3e6},
		{ID: 3, Release: 0, Deadline: d, Workload: 4e6},
		{ID: 4, Release: 0, Deadline: power.Milliseconds(100), Workload: 2.5e6},
		{ID: 5, Release: 0, Deadline: power.Milliseconds(100), Workload: 2.5e6},
	}
	full, err := solve(power.ModelAlphaZero, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, l2, err := Theorem2Scan(tasks, sys)
	if err != nil {
		t.Fatal(err)
	}
	_, lb, err := BinarySearchScan(tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(l2, full.BusyLen, 1e-9) || !almost(lb, full.BusyLen, 1e-9) {
		t.Errorf("duplicate deadlines: scans %g/%g != full %g", l2, lb, full.BusyLen)
	}
}

func TestEqualWorkloadsSymmetry(t *testing.T) {
	// Identical tasks: everything aligns to one busy end; all speeds
	// equal and the schedule is symmetric.
	sys := testSystem()
	tasks := make(task.Set, 4)
	for i := range tasks {
		tasks[i] = task.Task{ID: i, Release: 0, Deadline: power.Milliseconds(80), Workload: 3e6}
	}
	sol, err := solve(power.ModelStatic, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	var speeds []float64
	for _, segs := range sol.Schedule.Cores {
		for _, sg := range segs {
			speeds = append(speeds, sg.Speed)
		}
	}
	if len(speeds) != 4 {
		t.Fatalf("want 4 executions, got %d", len(speeds))
	}
	for _, s := range speeds[1:] {
		if !almost(s, speeds[0], 1e-9) {
			t.Errorf("identical tasks must share one speed: %v", speeds)
		}
	}
}

// TestScanCounterTotals pins the metrics dump of the §4 scans on fixed
// instances. The counters are tallied per call and flushed once, and
// must total what bumping them once per case or bisection step gave;
// a zero tally (no infeasible case in the second dump) adds no key.
func TestScanCounterTotals(t *testing.T) {
	dump := func(tel *telemetry.Recorder) string {
		var buf bytes.Buffer
		if err := tel.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	tel := telemetry.New()
	r := rand.New(rand.NewSource(7))
	tasks := randomCommonRelease(r, 24)
	// Two heavy tasks whose s_up floors exclude the shortest busy lengths.
	tasks = append(tasks,
		task.Task{ID: 100, Deadline: power.Milliseconds(3), Workload: 5.5e6},
		task.Task{ID: 101, Deadline: power.Milliseconds(4), Workload: 7e6})
	sys := testSystem()
	if _, err := solve(power.ModelStatic, tasks, sys, tel); err != nil {
		t.Fatal(err)
	}
	if _, err := solve(power.ModelAlphaZero, tasks, sys, tel); err != nil {
		t.Fatal(err)
	}
	if _, _, err := BinarySearchScan(tasks, sys, tel); err != nil {
		t.Fatal(err)
	}
	want := `# sdem telemetry metrics v1
counter sdem.solver.cr.bsearch_iters{} 3
counter sdem.solver.cr.case_scans{} 52
counter sdem.solver.cr.clamps{} 38
counter sdem.solver.cr.critical_clamps{} 2
counter sdem.solver.cr.infeasible_cases{} 12
counter sdem.solver.cr.solves{scheme=alpha_zero} 1
counter sdem.solver.cr.solves{scheme=with_static} 1
counter sdem.solver.cr.tasks{} 52
`
	if got := dump(tel); got != want {
		t.Errorf("capped instance dump:\n%s\nwant:\n%s", got, want)
	}

	tel = telemetry.New()
	r = rand.New(rand.NewSource(3))
	if _, err := solve(power.ModelStatic, randomCommonRelease(r, 6), testSystem(), tel); err != nil {
		t.Fatal(err)
	}
	want = `# sdem telemetry metrics v1
counter sdem.solver.cr.case_scans{} 6
counter sdem.solver.cr.clamps{} 5
counter sdem.solver.cr.solves{scheme=with_static} 1
counter sdem.solver.cr.tasks{} 6
`
	if got := dump(tel); got != want {
		t.Errorf("uncapped instance dump:\n%s\nwant:\n%s", got, want)
	}
}
