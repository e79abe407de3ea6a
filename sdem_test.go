package sdem

import (
	"math"
	"strings"
	"testing"
)

func TestSolveDispatchesByModel(t *testing.T) {
	sys := DefaultSystem()
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0

	common := TaskSet{
		{ID: 1, Release: 0, Deadline: Milliseconds(60), Workload: 3e6},
		{ID: 2, Release: 0, Deadline: Milliseconds(90), Workload: 4e6},
	}
	sol, err := Solve(common, sys)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Model != ModelCommonRelease {
		t.Errorf("model = %v, want common-release", sol.Model)
	}
	if sol.Energy <= 0 {
		t.Error("energy must be positive")
	}
	if err := Validate(sol.Schedule, common, sys.Core.SpeedMax); err != nil {
		t.Errorf("invalid schedule: %v", err)
	}

	agreeable := TaskSet{
		{ID: 1, Release: 0, Deadline: Milliseconds(50), Workload: 3e6},
		{ID: 2, Release: Milliseconds(30), Deadline: Milliseconds(120), Workload: 4e6},
	}
	sol, err = Solve(agreeable, sys)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Model != ModelAgreeable {
		t.Errorf("model = %v, want agreeable", sol.Model)
	}

	general := TaskSet{
		{ID: 1, Release: 0, Deadline: Milliseconds(200), Workload: 3e6},
		{ID: 2, Release: Milliseconds(20), Deadline: Milliseconds(80), Workload: 3e6},
	}
	if _, err := Solve(general, sys); err == nil {
		t.Error("general sets must be routed to ScheduleOnline")
	}
}

func TestOnlinePipelineEndToEnd(t *testing.T) {
	sys := DefaultSystem()
	tasks, err := SyntheticWorkload(SyntheticConfig{N: 25}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ScheduleOnline(tasks, sys, OnlineOptions{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Misses) != 0 {
		t.Fatalf("misses: %v", res.Misses)
	}
	mbkp, err := MBKP(tasks, sys, 8)
	if err != nil {
		t.Fatal(err)
	}
	mbkps, err := MBKPS(tasks, sys, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Energy <= mbkps.Energy && mbkps.Energy <= mbkp.Energy+1e-9) {
		t.Errorf("expected SDEM-ON ≤ MBKPS ≤ MBKP, got %g / %g / %g",
			res.Energy, mbkps.Energy, mbkp.Energy)
	}
	// The audit must reproduce the result's own number.
	if b := Audit(res.Schedule, sys); math.Abs(b.Total()-res.Energy) > 1e-9 {
		t.Errorf("audit %g != result energy %g", b.Total(), res.Energy)
	}
}

func TestBoundedSolver(t *testing.T) {
	sys := DefaultSystem()
	sys.Cores = 2
	sys.Core.Static = 0
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0
	tasks := TaskSet{
		{ID: 1, Release: 0, Deadline: Milliseconds(100), Workload: 3e6},
		{ID: 2, Release: 0, Deadline: Milliseconds(100), Workload: 3e6},
		{ID: 3, Release: 0, Deadline: Milliseconds(100), Workload: 2e6},
		{ID: 4, Release: 0, Deadline: Milliseconds(100), Workload: 2e6},
	}
	res, err := SolveBounded(tasks, sys, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Sums[0]-res.Sums[1]) > 1 {
		t.Errorf("exact partition should balance 5e6/5e6, got %v", res.Sums)
	}
}

func TestGanttAndPolicies(t *testing.T) {
	sys := DefaultSystem()
	tasks := TaskSet{{ID: 1, Release: 0, Deadline: Milliseconds(80), Workload: 4e6}}
	sol, err := Solve(tasks, sys)
	if err != nil {
		t.Fatal(err)
	}
	out := Gantt(sol.Schedule)
	if !strings.Contains(out, "MEM") || !strings.Contains(out, "core0") {
		t.Errorf("gantt output incomplete:\n%s", out)
	}
	race, err := RaceToIdle(tasks, sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	crit, err := CriticalSpeedPolicy(tasks, sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if race.Breakdown.CoreDynamic <= crit.Breakdown.CoreDynamic {
		t.Error("racing must burn more dynamic power than critical speed")
	}
}

func TestHeterogeneousAndDiscreteFacade(t *testing.T) {
	mem := Memory{Static: 4}
	tasks := TaskSet{
		{ID: 1, Release: 0, Deadline: Milliseconds(60), Workload: 3e6},
		{ID: 2, Release: 0, Deadline: Milliseconds(90), Workload: 4e6},
	}
	leaky := CortexA57()
	leaky.Static *= 2
	sol, err := SolveHeterogeneous(tasks, []Core{leaky, CortexA57()}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Scheme != "§4.2-hetero" || sol.Energy <= 0 {
		t.Errorf("hetero solution: %+v", sol)
	}
	if err := Validate(sol.Schedule, tasks, MHz(1900)); err != nil {
		t.Errorf("hetero schedule invalid: %v", err)
	}
	// Per-core audit must reproduce the declared energy.
	b := AuditPerCore(sol.Schedule, []Core{leaky, CortexA57()}, mem)
	if math.Abs(b.Total()-sol.Energy) > 1e-9 {
		t.Errorf("per-core audit %g != declared %g", b.Total(), sol.Energy)
	}

	// Quantization through the facade: feasible, same work, small
	// penalty.
	sys := DefaultSystem()
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0
	cont, err := Solve(tasks, sys)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Quantize(cont.Schedule, CortexA57Ladder())
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(q, tasks, CortexA57Ladder().MaxLevel()); err != nil {
		t.Errorf("quantized invalid: %v", err)
	}
	eq := Audit(q, sys).Total()
	if eq < cont.Energy || eq > cont.Energy*1.1 {
		t.Errorf("quantized energy %g vs continuous %g: expected a small positive penalty", eq, cont.Energy)
	}
}

func TestSwitchEnergyAccounting(t *testing.T) {
	sys := DefaultSystem()
	sys.Core.SwitchEnergy = 1e-4
	s := &Schedule{NumCores: 1, Start: 0, End: 1,
		CorePolicy: SleepBreakEven, MemoryPolicy: SleepBreakEven}
	s.Add(0, Segment{TaskID: 1, Start: 0, End: 0.1, Speed: 1e9})
	s.Add(0, Segment{TaskID: 1, Start: 0.1, End: 0.2, Speed: 1.5e9})
	s.Add(0, Segment{TaskID: 1, Start: 0.2, End: 0.3, Speed: 1.5e9})
	s.Normalize()
	b := Audit(s, sys)
	if b.SpeedSwitches != 1 {
		t.Errorf("switches = %d, want 1 (equal-speed continuation is free)", b.SpeedSwitches)
	}
	if math.Abs(b.CoreSwitch-1e-4) > 1e-12 {
		t.Errorf("switch energy = %g, want 1e-4", b.CoreSwitch)
	}
}

func TestBenchmarkWorkloadThroughFacade(t *testing.T) {
	tasks, err := BenchmarkWorkload(BenchmarkConfig{N: 10, Kernel: KernelMixed, U: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tasks.Classify() != ModelAgreeable && tasks.Classify() != ModelGeneral {
		t.Errorf("unexpected benchmark model %v", tasks.Classify())
	}
	res, err := ScheduleOnline(tasks, DefaultSystem(), OnlineOptions{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Misses) != 0 {
		t.Errorf("misses: %v", res.Misses)
	}
}

func TestBoundedGeneralFacade(t *testing.T) {
	sys := DefaultSystem()
	sys.Cores = 2
	tasks := TaskSet{
		{ID: 1, Release: 0, Deadline: Milliseconds(40), Workload: 3e6},
		{ID: 2, Release: 0, Deadline: Milliseconds(90), Workload: 4e6},
		{ID: 3, Release: 0, Deadline: Milliseconds(120), Workload: 2e6},
	}
	res, err := SolveBoundedGeneral(tasks, sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Schedule, tasks, sys.Core.SpeedMax); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// Bounded cannot beat the unbounded optimum.
	unbounded, err := Solve(tasks, sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy < unbounded.Energy*(1-1e-9) {
		t.Errorf("bounded %g beats unbounded %g", res.Energy, unbounded.Energy)
	}
}

func TestGanttSVGFacade(t *testing.T) {
	sys := DefaultSystem()
	tasks := TaskSet{{ID: 1, Release: 0, Deadline: Milliseconds(50), Workload: 3e6}}
	sol, err := Solve(tasks, sys)
	if err != nil {
		t.Fatal(err)
	}
	svg := GanttSVG(sol.Schedule, "facade test")
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "facade test") {
		t.Error("SVG output incomplete")
	}
}

func TestCortexA7Facade(t *testing.T) {
	if CortexA7().SpeedMax >= CortexA57().SpeedMax {
		t.Error("A7 must peak below A57")
	}
}

func TestTelemetryFacade(t *testing.T) {
	sys := DefaultSystem()
	tasks := TaskSet{
		{ID: 1, Release: 0, Deadline: Milliseconds(60), Workload: 3e6},
		{ID: 2, Release: 0, Deadline: Milliseconds(90), Workload: 4e6},
	}

	// SolveCtx with the recorder off must match Solve exactly.
	plain, err := Solve(tasks, sys)
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := SolveCtx(nil, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Energy-quiet.Energy) > 1e-12 {
		t.Errorf("SolveCtx(nil recorder) energy %g != Solve %g", quiet.Energy, plain.Energy)
	}

	// An enabled recorder must observe the solver layer without changing it.
	tel := NewTelemetry()
	loud, err := SolveCtx(nil, tasks, sys, tel)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Energy-loud.Energy) > 1e-12 {
		t.Errorf("telemetry perturbed the solution: %g != %g", loud.Energy, plain.Energy)
	}
	var dump strings.Builder
	if err := tel.WriteMetrics(&dump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), "sdem.solver.cr.solves") {
		t.Errorf("metrics dump missing solver counters:\n%s", dump.String())
	}

	// The public component attribution must sum to the audited total.
	b := Audit(plain.Schedule, sys)
	comp := ComponentBreakdown(b)
	if math.Abs(comp.Total()-b.Total()) > 1e-9 {
		t.Errorf("component sum %g != audit total %g", comp.Total(), b.Total())
	}

	// The OpenMetrics facade renders the same recorder state as
	// Prometheus text and is byte-deterministic.
	var om1, om2 strings.Builder
	if err := WriteOpenMetrics(&om1, tel); err != nil {
		t.Fatal(err)
	}
	if err := WriteOpenMetrics(&om2, tel); err != nil {
		t.Fatal(err)
	}
	if om1.String() != om2.String() {
		t.Error("OpenMetrics exposition not deterministic across renders")
	}
	if !strings.Contains(om1.String(), "sdem_solver_cr_solves_total") || !strings.HasSuffix(om1.String(), "# EOF\n") {
		t.Errorf("OpenMetrics exposition malformed:\n%s", om1.String())
	}

	// A nil recorder exports the empty exposition.
	var empty strings.Builder
	if err := WriteOpenMetrics(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if empty.String() != "# EOF\n" {
		t.Errorf("nil exposition = %q, want %q", empty.String(), "# EOF\n")
	}
}
