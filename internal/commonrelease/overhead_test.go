package commonrelease

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"sdem/internal/numeric"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
	"sdem/internal/telemetry"
	"sdem/internal/workload"
)

// sweepOverhead densely sweeps busy lengths for the overhead model using
// the solver's own builder but an independent grid, returning the best
// audited energy. The grid is fine enough to straddle every break-even
// discontinuity.
func sweepOverhead(tasks task.Set, sys power.System, samples int) (float64, error) {
	in, err := normalize(tasks, sys, power.ModelOverhead, nil)
	if err != nil {
		return 0, err
	}
	cmax := in.c[len(in.c)-1]
	var wmax float64
	for _, tk := range in.tasks {
		wmax = math.Max(wmax, tk.Workload)
	}
	lmin := cmax * 1e-6
	if sys.Core.SpeedMax > 0 {
		lmin = math.Max(lmin, wmax/sys.Core.SpeedMax)
	}
	best := math.Inf(1)
	for i := 0; i <= samples; i++ {
		L := lmin + (cmax-lmin)*float64(i)/float64(samples)
		if e := schedule.Audit(in.build(L), in.sys).Total(); e < best {
			best = e
		}
	}
	return best, nil
}

func overheadTasks(r *rand.Rand, n int) task.Set {
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

func TestOverheadMatchesSweep(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		sys := power.DefaultSystem()
		sys.Memory.BreakEven = power.Milliseconds(15 + r.Float64()*55)
		sys.Core.BreakEven = power.Milliseconds(r.Float64() * 20)
		tasks := overheadTasks(r, 1+r.Intn(7))
		sol, err := solve(power.ModelOverhead, tasks, sys, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, err := sweepOverhead(tasks, sys, 6000)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Energy > ref*(1+1e-6) {
			t.Errorf("seed %d: solver %.9g worse than sweep %.9g", seed, sol.Energy, ref)
		}
		if err := sol.Schedule.Validate(tasks, schedule.ValidateOptions{NonPreemptive: true, SpeedMax: sys.Core.SpeedMax}); err != nil {
			t.Errorf("seed %d: invalid schedule: %v", seed, err)
		}
	}
}

func TestOverheadReducesToStaticWhenFree(t *testing.T) {
	// With ξ = ξ_m = 0 the overhead solver must reproduce §4.2 exactly.
	sys := testSystem()
	for seed := int64(50); seed < 56; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := overheadTasks(r, 1+r.Intn(6))
		a, err := solve(power.ModelOverhead, tasks, sys, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := solve(power.ModelStatic, tasks, sys, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(a.Energy, b.Energy, 1e-6) {
			t.Errorf("seed %d: overhead solver %.9g != §4.2 %.9g", seed, a.Energy, b.Energy)
		}
	}
}

// TestTable3CaseSelection reproduces the behavioural content of the
// paper's Table 3: the optimal memory sleep decision as a function of how
// the unconstrained sleep Δ_m compares with ξ and ξ_m.
func TestTable3CaseSelection(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tasks := overheadTasks(r, 4)

	// Row 1: Δ_m ≥ ξ, ξ_m — memory (and cores) sleep; the audited sleep
	// equals the no-overhead optimum's sleep because transition cost is
	// independent of the sleep length.
	sys := power.DefaultSystem()
	sys.Memory.BreakEven = power.Milliseconds(1)
	sys.Core.BreakEven = power.Milliseconds(0.5)
	sol, err := solve(power.ModelOverhead, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := schedule.Audit(sol.Schedule, sys)
	if b.MemorySleeps == 0 {
		t.Error("row 1: memory should sleep when break-even is tiny")
	}
	free, _ := solve(power.ModelStatic, tasks, sys, nil)
	if !almost(sol.BusyLen, free.BusyLen, 1e-6) {
		t.Errorf("row 1: busy length %g, want the ξ=0 optimum %g", sol.BusyLen, free.BusyLen)
	}

	// Row 2/4 (Δ_m < ξ_m): sleeping the memory is never worth it, so the
	// optimum keeps every task at its constrained critical speed and the
	// memory stays active through its idle tail.
	sys = power.DefaultSystem()
	sys.Memory.BreakEven = 10 // far beyond any possible sleep
	sys.Core.BreakEven = power.Milliseconds(1)
	sol, err = solve(power.ModelOverhead, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	b = schedule.Audit(sol.Schedule, sys)
	if b.MemorySleeps != 0 {
		t.Error("row 2: memory must not sleep when ξ_m is prohibitive")
	}
	// No alignment benefit: the busy length is the largest natural
	// completion.
	inNat, _ := normalize(tasks, sys, power.ModelOverhead, nil)
	if !almost(sol.BusyLen, inNat.c[len(inNat.c)-1], 1e-6) {
		t.Errorf("row 2: busy length %g, want natural max %g", sol.BusyLen, inNat.c[len(inNat.c)-1])
	}

	// Row 3 (ξ_m ≤ Δ_m < ξ): memory sleeps but cores, whose break-even is
	// prohibitive, stay idle-active; the schedule still compresses for the
	// memory's sake.
	sys = power.DefaultSystem()
	sys.Memory.BreakEven = power.Milliseconds(5)
	sys.Core.BreakEven = 10
	sol, err = solve(power.ModelOverhead, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	b = schedule.Audit(sol.Schedule, sys)
	if b.MemorySleeps == 0 {
		t.Error("row 3: memory should still sleep")
	}
	if b.CoreSleeps != 0 {
		t.Error("row 3: cores must not sleep when ξ is prohibitive")
	}
}

func TestOverheadConstrainedSpeedUsed(t *testing.T) {
	// One short task in a long window, core break-even longer than the
	// idle tail left by racing: the task must stretch (s_c = filled) and
	// the core stays active. With a small break-even it races to s_m and
	// sleeps.
	sys := power.DefaultSystem()
	sys.Memory.Static = 0 // remove the memory term: core trade-off only
	sys.Memory.BreakEven = power.Milliseconds(1)
	w := 3e6
	d := power.Milliseconds(12)
	tasks := task.Set{{ID: 1, Release: 0, Deadline: d, Workload: w}}

	sys.Core.BreakEven = power.Milliseconds(100) // cannot sleep: stretch
	sol, err := solve(power.ModelOverhead, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.BusyLen, d, 1e-6) {
		t.Errorf("prohibitive ξ: busy length %g, want full window %g", sol.BusyLen, d)
	}

	sys.Core.BreakEven = power.Milliseconds(1) // can sleep: race to s_m
	sol, err = solve(power.ModelOverhead, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantL := w / sys.Core.CriticalSpeedRaw()
	if !almost(sol.BusyLen, wantL, 1e-6) {
		t.Errorf("small ξ: busy length %g, want critical completion %g", sol.BusyLen, wantL)
	}
}

func TestOverheadEmptyAndErrors(t *testing.T) {
	sys := power.DefaultSystem()
	sol, err := solve(power.ModelOverhead, task.Set{}, sys, nil)
	if err != nil || sol.Energy != 0 {
		t.Errorf("empty: sol=%v err=%v", sol, err)
	}
	bad := task.Set{
		{ID: 1, Release: 0, Deadline: 1, Workload: 1e6},
		{ID: 2, Release: 0.25, Deadline: 1, Workload: 1e6},
	}
	if _, err := solve(power.ModelOverhead, bad, sys, nil); err == nil {
		t.Error("non-common release must be rejected")
	}
}

// TestEnergyClosedMatchesAudit pins the closed-form objective to the
// audit-based oracle: for random instances and busy lengths across the
// scan range, energyClosed must price the candidate exactly as building
// and auditing the schedule would, up to float rounding. The draws cover
// the §7 model and, with ξ = ξ_m = 0, both §4 models, whose case scan
// prices every case with energyClosed too.
func TestEnergyClosedMatchesAudit(t *testing.T) {
	for _, m := range []power.Model{power.ModelOverhead, power.ModelStatic, power.ModelAlphaZero} {
		for seed := int64(1); seed <= 6; seed++ {
			r := rand.New(rand.NewSource(seed))
			sys := power.DefaultSystem()
			// Vary the break-evens so both sides of every gapCost branch get hit.
			sys.Core.BreakEven = power.Milliseconds(1 + 20*r.Float64())
			sys.Memory.BreakEven = power.Milliseconds(1 + 30*r.Float64())
			if m != power.ModelOverhead {
				sys.Core.BreakEven, sys.Memory.BreakEven = 0, 0
			}
			if m == power.ModelAlphaZero {
				sys.Core.Static = 0
			}
			n := 2 + r.Intn(12)
			tasks := make(task.Set, n)
			for i := range tasks {
				tasks[i] = task.Task{
					ID:       i,
					Release:  0,
					Deadline: power.Milliseconds(20 + 100*r.Float64()),
					Workload: 1e6 + 4e6*r.Float64(),
				}
			}
			in, err := normalize(tasks, sys, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			in.prepTables()
			cMax := in.c[len(in.c)-1]
			for trial := 0; trial < 200; trial++ {
				L := cMax * (0.05 + 0.95*r.Float64())
				got, want := in.energyClosed(L), in.energyOf(L)
				if rel := math.Abs(got-want) / math.Max(want, 1e-12); rel > 1e-9 {
					t.Fatalf("model %d seed %d n %d L %g: closed form %g vs audit %g (rel %g)", m, seed, n, L, got, want, rel)
				}
			}
		}
	}
}

// overheadScanOracle is the §7 scan without the bound or the closed
// form: golden-section search every piece in breakpoint order and keep
// the first strictly better result. The closed-form pricing is checked
// against it.
func (in *instance) overheadScanOracle() (bestL float64, caseIdx int) {
	n := len(in.tasks)
	in.prepTables()
	points := append([]float64(nil), in.c...)
	for _, p := range [2]float64{in.horizon - in.sys.Memory.BreakEven, in.horizon - in.sys.Core.BreakEven} {
		if p > 0 && p < in.c[n-1] {
			points = append(points, p)
		}
	}
	sort.Float64s(points)
	bestL, bestE := in.c[n-1], in.evalOverhead(in.c[n-1])
	prev := math.Max(in.capFor(in.c[0]), in.c[0]*relTol)
	for _, p := range points {
		if p <= prev+schedule.Tol {
			continue
		}
		x, e := numeric.MinimizeConvex(in.evalOverhead, prev, p, numeric.DefaultTol)
		if e < bestE {
			bestL, bestE = x, e
		}
		prev = p
	}
	caseIdx = sort.SearchFloat64s(in.c, bestL-schedule.Tol) + 1
	if caseIdx > n {
		caseIdx = n
	}
	return bestL, caseIdx
}

// randomOverheadCase draws a §7 instance from a mix meant to reach every
// branch of the piece bound: the A57 and A7 cores and an uncapped core,
// leak-free and leaky, tasks whose filled speed sits at or near s_up,
// duplicated natural completions, a nonzero common release, and
// break-even times from zero to past the horizon, so idle tails fall on
// both sides of ξ and ξ_m.
func randomOverheadCase(r *rand.Rand) (task.Set, power.System) {
	sys := power.DefaultSystem()
	switch r.Intn(3) {
	case 1:
		sys.Core = power.CortexA7()
	case 2:
		sys.Core.SpeedMax = 0
	}
	if r.Intn(4) == 0 {
		sys.Core.Static = 0
	}
	release := 0.0
	if r.Intn(3) == 0 {
		release = r.Float64()
	}
	n := 1 + r.Intn(100)
	tasks := make(task.Set, n)
	var horizon float64
	for i := range tasks {
		if i > 0 && r.Intn(5) == 0 {
			// A duplicated natural completion, or one within a few Tol.
			tasks[i] = tasks[r.Intn(i)]
			tasks[i].ID = i
			if r.Intn(2) == 0 {
				tasks[i].Deadline += schedule.Tol * 4 * r.Float64()
			}
			continue
		}
		d := power.Milliseconds(2 + 118*r.Float64())
		w := 1e5 + 5e6*r.Float64()
		if sys.Core.SpeedMax > 0 {
			if r.Intn(4) == 0 {
				w = d * sys.Core.SpeedMax * (0.9 + 0.1*r.Float64())
			}
			w = math.Min(w, d*sys.Core.SpeedMax)
		}
		tasks[i] = task.Task{ID: i, Release: release, Deadline: release + d, Workload: w}
		horizon = math.Max(horizon, d)
	}
	breakEven := func() float64 {
		if r.Intn(5) == 0 {
			return 0
		}
		return horizon * 1.2 * r.Float64()
	}
	sys.Core.BreakEven, sys.Memory.BreakEven = breakEven(), breakEven()
	if sys.Core.BreakEven == 0 && sys.Memory.BreakEven == 0 { //lint:allow floatcmp: exact zero is the drawn "no overhead" value
		sys.Memory.BreakEven = horizon / 2
	}
	// Put a tail breakpoint d_max − ξ within a few Tol of a natural
	// completion, where the pieces' slivers are.
	for _, xi := range [2]*float64{&sys.Core.BreakEven, &sys.Memory.BreakEven} {
		if r.Intn(4) == 0 {
			c := naturalCompletionOracle(tasks[r.Intn(n)], sys, horizon)
			*xi = math.Max(0, horizon-c+schedule.Tol*(4*r.Float64()-2))
		}
	}
	return tasks, sys
}

// naturalCompletionOracle re-derives one task's natural completion from
// the paper's definitions, s_m included, on every call: the per-task
// computation that MaxNaturalCompletion and normalizeInto hoist s_m out
// of. horizon is the §7 maximal interval of the task's instance.
func naturalCompletionOracle(t task.Task, sys power.System, horizon float64) float64 {
	core := sys.Core
	filled := t.FilledSpeed()
	speed := filled
	switch m := sys.Model(); {
	case m == power.ModelStatic:
		speed = core.CriticalSpeed(filled)
	case m == power.ModelOverhead && !numeric.IsZero(core.Static, 0):
		sm := math.Pow(core.Static/(core.Beta*(core.Lambda-1)), 1/core.Lambda)
		race := sm
		if core.SpeedMax > 0 && race > core.SpeedMax {
			race = core.SpeedMax
		}
		if !(race > 0 && horizon-t.Workload/race >= core.BreakEven) {
			sm = filled
		}
		speed = core.ClampSpeed(sm, filled)
	}
	return t.Workload / speed
}

// TestNaturalCompletionsMatchPerTaskOracle pins the hoisted s_m: on the
// random §7 instances, and on the same sets priced in §4.2 with the
// break-even times removed, every natural completion normalizeInto
// assigns and MaxNaturalCompletion's maximum carry the bits of the
// per-task oracle.
func TestNaturalCompletionsMatchPerTaskOracle(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		tasks, sys := randomOverheadCase(rand.New(rand.NewSource(seed)))
		static := sys
		static.Core.BreakEven, static.Memory.BreakEven = 0, 0
		for _, sys := range []power.System{sys, static} {
			horizon := overheadHorizon(tasks)
			var want float64
			for _, tk := range tasks {
				want = math.Max(want, naturalCompletionOracle(tk, sys, horizon))
			}
			if got := MaxNaturalCompletion(tasks, sys); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d model %d: MaxNaturalCompletion %.17g, oracle %.17g", seed, sys.Model(), got, want)
			}
			in, err := normalize(tasks, sys, sys.Model(), nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for i, tk := range in.tasks {
				if want := naturalCompletionOracle(tk, sys, horizon); math.Float64bits(in.c[i]) != math.Float64bits(want) {
					t.Fatalf("seed %d model %d task %d: c %.17g, oracle %.17g", seed, sys.Model(), tk.ID, in.c[i], want)
				}
			}
		}
	}
}

// overheadInstance normalizes a §7 instance as solve does for ModelOverhead.
func overheadInstance(tasks task.Set, sys power.System) (*instance, error) {
	return normalize(tasks, sys, power.ModelOverhead, nil)
}

// checkAgainstOracle runs the scan and two oracles on one normalized
// instance. The pruning must be exact: the scan returns the bits of
// pricing every piece with searchPiece. Every piece's bound must lie at
// or below the golden-section minimum on that piece, and the scan's
// energy may exceed the golden-section oracle's only by what the closed
// form cannot see: the largest sliver slack over the pieces plus the
// bound's rounding margin. It returns the pieces priced and the pieces
// in the scan.
func checkAgainstOracle(t testing.TB, in *instance) (priced, pieces int) {
	t.Helper()
	if len(in.tasks) == 0 {
		return 0, 0
	}
	gotL, gotCase := in.overheadScan()
	priced, pieces = int(in.priced), len(in.bounds)
	var slack float64
	allL, allE := in.c[len(in.c)-1], in.evalOverhead(in.c[len(in.c)-1])
	w := in.walkPieces()
	for k, lb := range in.bounds {
		a, b, _ := w.next()
		_, e := numeric.MinimizeConvex(in.evalOverhead, a, b, numeric.DefaultTol)
		if lb > e {
			t.Fatalf("piece %d [%.17g, %.17g]: bound %.17g above its golden minimum %.17g", k, a, b, lb, e)
		}
		slack = math.Max(slack, in.sliverSlack(a, b))
		if x, e := in.searchPiece(a, b); e < allE {
			allL, allE = x, e
		}
	}
	if _, _, ok := w.next(); ok {
		t.Fatalf("walk has more pieces than the scan's %d bounds", len(in.bounds))
	}
	allCase := min(sort.SearchFloat64s(in.c, allL-schedule.Tol)+1, len(in.c))
	if math.Float64bits(gotL) != math.Float64bits(allL) || gotCase != allCase {
		t.Fatalf("pruned scan (L %.17g, case %d) != every piece priced (L %.17g, case %d)", gotL, gotCase, allL, allCase)
	}
	wantL, _ := in.overheadScanOracle()
	got, want := in.evalOverhead(gotL), in.evalOverhead(wantL)
	if got > want+slack+boundRelMargin*math.Abs(want) {
		t.Fatalf("scan energy %.17g at L %.17g above oracle %.17g at L %.17g + slack %.3g", got, gotL, want, wantL, slack)
	}
	return priced, pieces
}

// TestOverheadScanMatchesOracle checks the scan against its oracles on
// random instances: the pruned scan equal to pricing every piece, every
// piece bound below the golden-section minimum on its piece, and the
// scan's energy within the sliver slack of the golden-section oracle's.
func TestOverheadScanMatchesOracle(t *testing.T) {
	var priced, pieces int
	for seed := int64(0); seed < 1000; seed++ {
		r := rand.New(rand.NewSource(seed))
		in, err := overheadInstance(randomOverheadCase(r))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s, p := checkAgainstOracle(t, in)
		priced += s
		pieces += p
	}
	t.Logf("priced %d of %d pieces", priced, pieces)
}

// benchOverheadTasks is the 100-task common-release set of the §7 layer
// benchmark (BenchmarkSolveCommonReleaseOverhead).
func benchOverheadTasks(t testing.TB) task.Set {
	tasks, err := workload.Synthetic(workload.SyntheticConfig{N: 100, MaxInterArrival: 1e-12}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tasks {
		tasks[i].Release = 0
		tasks[i].Deadline = power.Milliseconds(10) + tasks[i].Deadline/10
	}
	return tasks
}

// TestOverheadScanPrunesBenchInstance checks the point of the bound and
// of the closed form: on the n = 100 benchmark instance the scan prices
// at most three of its pieces, at no more than six candidates each plus
// the scan's starting point, and counts only those in telemetry.
func TestOverheadScanPrunesBenchInstance(t *testing.T) {
	tasks, sys := benchOverheadTasks(t), power.DefaultSystem()
	in, err := overheadInstance(tasks, sys)
	if err != nil {
		t.Fatal(err)
	}
	priced, pieces := checkAgainstOracle(t, in)
	if priced > 3 {
		t.Errorf("priced %d of %d pieces, want at most 3", priced, pieces)
	}
	tel := telemetry.New()
	if _, err := solve(power.ModelOverhead, tasks, sys, tel); err != nil {
		t.Fatal(err)
	}
	if got := tel.CounterValue("sdem.solver.cr.pieces", ""); got != int64(priced) {
		t.Errorf("pieces counter %d, want the %d priced", got, priced)
	}
	evals := tel.CounterValue("sdem.solver.cr.objective_evals", "")
	if evals > int64(6*priced+1) {
		t.Errorf("%d objective evaluations for %d priced pieces, want at most %d", evals, priced, 6*priced+1)
	}
	t.Logf("priced %d of %d pieces, %d objective evaluations", priced, pieces, evals)
}

// FuzzOverheadScan differentially fuzzes the pruned §7 scan against its
// oracles (checkAgainstOracle): each 4-byte group of raw is one task
// (deadline and workload), and ξ, ξ_m, the core static power α and s_up
// are mapped into physical ranges. The pruned scan must return the bits
// of pricing every piece, every piece bound must hold, and the energy
// must stay within the sliver slack of the golden-section oracle's.
func FuzzOverheadScan(f *testing.F) {
	f.Add([]byte{10, 200, 40, 90, 255, 255, 128, 0, 64, 64, 64, 64}, 0.01, 0.04, 0.31, 1.9e9)
	f.Add([]byte{1, 1, 255, 255, 1, 1, 255, 255}, 0.0, 0.2, 0.0, 0.0)
	f.Add([]byte{200, 10, 200, 10, 30, 30, 250, 250, 90, 9, 9, 90}, 0.1, 0.0, 1.0, 7e8)
	f.Fuzz(func(t *testing.T, raw []byte, xi, xiMem, alpha, speedMax float64) {
		for _, v := range [4]float64{xi, xiMem, alpha, speedMax} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite parameter")
			}
		}
		sys := power.DefaultSystem()
		sys.Core.BreakEven = math.Mod(math.Abs(xi), 0.2)
		sys.Memory.BreakEven = math.Mod(math.Abs(xiMem), 0.2)
		sys.Core.Static = math.Mod(math.Abs(alpha), 5)
		sys.Core.SpeedMax = math.Mod(math.Abs(speedMax), 5e9)
		if sys.Core.SpeedMax < 1e8 {
			sys.Core.SpeedMax = 0
		}
		sys.Core.SpeedMin = 0
		var tasks task.Set
		for i := 0; i+4 <= len(raw) && len(tasks) < 100; i += 4 {
			d := power.Milliseconds(0.1 + 119.9*float64(uint16(raw[i])<<8|uint16(raw[i+1]))/65535)
			w := 1e3 + 1e7*float64(uint16(raw[i+2])<<8|uint16(raw[i+3]))/65535
			if sys.Core.SpeedMax > 0 {
				w = math.Min(w, d*sys.Core.SpeedMax)
			}
			tasks = append(tasks, task.Task{ID: len(tasks), Deadline: d, Workload: w})
		}
		in, err := overheadInstance(tasks, sys)
		if err != nil {
			t.Skipf("instance rejected: %v", err)
		}
		checkAgainstOracle(t, in)
	})
}
