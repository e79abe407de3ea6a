package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
)

func testSystem(cores int) power.System {
	sys := power.DefaultSystem()
	sys.Cores = cores
	sys.Core.Static = 0 // Theorem 1's setting
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0
	return sys
}

func TestOptimalBusyLengthClosedForm(t *testing.T) {
	sys := testSystem(2)
	sums := []float64{5e6, 5e6}
	L, err := OptimalBusyLength(sums, sys, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(sys.Core.Beta*(sys.Core.Lambda-1)*2*math.Pow(5e6, 3)/sys.Memory.Static, 1.0/3)
	if math.Abs(L-want) > 1e-12 {
		t.Errorf("L = %g, want Eq.(2) value %g", L, want)
	}
	// Numeric check: no sampled L beats it.
	energy := func(l float64) float64 {
		e := sys.Memory.Static * l
		for _, w := range sums {
			e += sys.Core.Beta * math.Pow(w, 3) * math.Pow(l, -2)
		}
		return e
	}
	for _, f := range []float64{0.5, 0.9, 1.1, 2} {
		if energy(L*f) < energy(L)-1e-15 {
			t.Errorf("L·%g beats the closed form", f)
		}
	}
}

func TestOptimalBusyLengthClamping(t *testing.T) {
	sys := testSystem(2)
	// Deadline clamp: the unconstrained L* ≈ 3.16 ms exceeds a 2.8 ms
	// deadline that is still feasible at s_up (needs ≥ 2.63 ms).
	L, err := OptimalBusyLength([]float64{5e6, 5e6}, sys, 2.8e-3)
	if err != nil {
		t.Fatal(err)
	}
	if L != 2.8e-3 {
		t.Errorf("deadline clamp: L = %g, want 2.8e-3", L)
	}
	// Speed-cap clamp: a huge sum forces L ≥ maxW/s_up.
	L, err = OptimalBusyLength([]float64{1e9, 1e6}, sys, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if lmin := 1e9 / sys.Core.SpeedMax; L < lmin-1e-12 {
		t.Errorf("speed-cap clamp: L = %g below %g", L, lmin)
	}
	// Infeasible.
	if _, err := OptimalBusyLength([]float64{1e12}, sys, 1e-6); err == nil {
		t.Error("infeasible instance must error")
	}
	// Empty.
	L, err = OptimalBusyLength([]float64{0, 0}, sys, 1)
	if err != nil || L != 0 {
		t.Errorf("empty sums: L=%g err=%v", L, err)
	}
}

// minEnergyClosedForm evaluates Eq. (3): the minimum system energy of a
// 2-core (or C-core) common-deadline instance with per-core sums, ignoring
// core static power and assuming the unconstrained L of Eq. (2) is
// feasible.
func minEnergyClosedForm(sums []float64, sys power.System) float64 {
	core, mem := sys.Core, sys.Memory
	var sumPow float64
	for _, w := range sums {
		sumPow += math.Pow(w, core.Lambda)
	}
	l := core.Lambda
	return math.Pow(mem.Static, (l-1)/l) * math.Pow(core.Beta, 1/l) * l *
		math.Pow(l-1, (1-l)/l) * math.Pow(sumPow, 1/l)
}

func TestMinEnergyClosedFormMatchesDirectEvaluation(t *testing.T) {
	// Eq. (3) must equal E(L*) with L* from Eq. (2).
	sys := testSystem(2)
	sums := []float64{3e6, 4.2e6}
	L, _ := OptimalBusyLength(sums, sys, 100) // huge deadline: unclamped
	direct := sys.Memory.Static * L
	for _, w := range sums {
		direct += sys.Core.Beta * math.Pow(w, 3) * math.Pow(L, -2)
	}
	closed := minEnergyClosedForm(sums, sys)
	if math.Abs(direct-closed) > 1e-9*closed {
		t.Errorf("Eq.(3) %.12g != direct %.12g", closed, direct)
	}
}

func TestExactFindsPerfectPartition(t *testing.T) {
	// A yes-instance of PARTITION: exact must split it evenly.
	ws := []float64{3, 1, 1, 2, 2, 1} // total 10 → 5/5
	_, sums, err := Exact(ws, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	hi := math.Max(sums[0], sums[1])
	if hi != 5 {
		t.Errorf("exact sums = %v, want 5/5", sums)
	}
}

func TestExactBeatsOrMatchesLPT(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(8)
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = 1 + r.Float64()*9
		}
		_, exSums, err := Exact(ws, 3, 3)
		if err != nil {
			return false
		}
		_, lptSums, err := LPT(ws, 3)
		if err != nil {
			return false
		}
		return costOf(exSums, 3) <= costOf(lptSums, 3)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLPTPreservesTotal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		ws := make([]float64, n)
		var total float64
		for i := range ws {
			ws[i] = r.Float64() * 10
			total += ws[i]
		}
		asg, sums, err := LPT(ws, 4)
		if err != nil || len(asg) != n {
			return false
		}
		var got float64
		for _, s := range sums {
			got += s
		}
		return math.Abs(got-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBalancedBeatsUnbalanced(t *testing.T) {
	// Core claim of Theorem 1: workload balance minimizes Σ W_c^λ, hence
	// energy. Compare the exact split of a symmetric instance against a
	// deliberately skewed one.
	sys := testSystem(2)
	balanced := minEnergyClosedForm([]float64{5e6, 5e6}, sys)
	skewed := minEnergyClosedForm([]float64{8e6, 2e6}, sys)
	if balanced >= skewed {
		t.Errorf("balanced %.9g should beat skewed %.9g", balanced, skewed)
	}
}

func TestSolveEndToEnd(t *testing.T) {
	sys := testSystem(2)
	d := power.Milliseconds(100)
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: d, Workload: 3e6},
		{ID: 2, Release: 0, Deadline: d, Workload: 1e6},
		{ID: 3, Release: 0, Deadline: d, Workload: 1e6},
		{ID: 4, Release: 0, Deadline: d, Workload: 2e6},
		{ID: 5, Release: 0, Deadline: d, Workload: 2e6},
		{ID: 6, Release: 0, Deadline: d, Workload: 1e6},
	}
	res, err := Solve(tasks, sys, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(tasks, schedule.ValidateOptions{NonPreemptive: true, SpeedMax: sys.Core.SpeedMax}); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	// 10e6 total splits 5/5.
	if math.Abs(res.Sums[0]-5e6) > 1 || math.Abs(res.Sums[1]-5e6) > 1 {
		t.Errorf("sums = %v, want 5e6/5e6", res.Sums)
	}
	// Audited energy must match Eq. (3) when unclamped (plus nothing else:
	// α = 0, free sleeping).
	want := minEnergyClosedForm(res.Sums, sys)
	if math.Abs(res.Energy-want) > 1e-6*want {
		t.Errorf("audit %.9g != Eq.(3) %.9g", res.Energy, want)
	}
	// The exact solution must not lose to LPT.
	lpt, err := Solve(tasks, sys, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy > lpt.Energy*(1+1e-9) {
		t.Errorf("exact %.9g worse than LPT %.9g", res.Energy, lpt.Energy)
	}
}

func TestSolveRejectsBadInputs(t *testing.T) {
	sys := testSystem(2)
	// Differing deadlines.
	bad := task.Set{
		{ID: 1, Release: 0, Deadline: 1, Workload: 1e6},
		{ID: 2, Release: 0, Deadline: 2, Workload: 1e6},
	}
	if _, err := Solve(bad, sys, true); err == nil {
		t.Error("differing deadlines must be rejected")
	}
	// Unbounded core count.
	sysU := sys
	sysU.Cores = 0
	good := task.Set{{ID: 1, Release: 0, Deadline: 1, Workload: 1e6}}
	if _, err := Solve(good, sysU, true); err == nil {
		t.Error("zero cores must be rejected")
	}
	// Empty set is fine.
	if res, err := Solve(task.Set{}, sys, true); err != nil || res.Energy != 0 {
		t.Errorf("empty: %+v, %v", res, err)
	}
}

func TestExactGuards(t *testing.T) {
	if _, _, err := Exact(make([]float64, 30), 2, 3); err == nil {
		t.Error("exact must refuse > 24 tasks")
	}
	if _, _, err := Exact([]float64{1}, 0, 3); err == nil {
		t.Error("exact must refuse zero cores")
	}
	if _, _, err := LPT([]float64{1}, 0); err == nil {
		t.Error("LPT must refuse zero cores")
	}
}
