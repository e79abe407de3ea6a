// Package sdem is a library for Sleep- and DVS-aware system-wide Energy
// Minimization (SDEM) on multi-core processors with a shared main memory,
// reproducing Fu, Chau, Li and Xue, "Race to idle or not: balancing the
// memory sleep time with DVS for energy minimization" (DATE 2015 /
// journal version 2017).
//
// The model: homogeneous DVS cores with power α + β·s^λ share one memory
// with static power α_m; the memory can sleep only during the common idle
// time of all cores; mode transitions cost energy expressed as break-even
// times ξ and ξ_m. The library provides:
//
//   - the paper's optimal offline schedulers for common-release (§4) and
//     agreeable-deadline (§5) task sets, with and without core static
//     power and transition overhead (§7), unified behind Solve;
//   - the SDEM-ON online heuristic for general task sets (§6) and the
//     MBKP/MBKPS baselines of the evaluation, behind ScheduleOnline and
//     the baseline constructors;
//   - the bounded-core NP-hard variant's exact and heuristic partitioners;
//   - an independent schedule auditor, workload generators (synthetic and
//     DSPstone-style benchmark instances), and the full experiment
//     harness regenerating every figure of the paper's evaluation.
//
// All quantities are SI: seconds, hertz, watts, joules.
package sdem

import (
	"context"
	"io"

	"sdem/internal/baseline"
	"sdem/internal/commonrelease"
	"sdem/internal/core"
	"sdem/internal/discrete"
	"sdem/internal/faults"
	"sdem/internal/online"
	"sdem/internal/partition"
	"sdem/internal/power"
	"sdem/internal/resilient"
	"sdem/internal/schedule"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
	"sdem/internal/telemetry/export"
	"sdem/internal/trace"
	"sdem/internal/workload"
)

// Core model re-exports.
type (
	// Task is one real-time job: release, deadline, workload in cycles.
	Task = task.Task
	// TaskSet is an ordered collection of tasks.
	TaskSet = task.Set
	// TaskModel classifies a task set (common release / agreeable /
	// general).
	TaskModel = task.Model
	// Core is the DVS core power model α + β·s^λ.
	Core = power.Core
	// Memory is the shared-memory power model.
	Memory = power.Memory
	// System bundles cores and memory.
	System = power.System
	// Schedule is the per-core segment schedule every solver produces.
	Schedule = schedule.Schedule
	// Segment is one constant-speed execution of a task on a core.
	Segment = schedule.Segment
	// EnergyBreakdown itemizes audited energy.
	EnergyBreakdown = schedule.Breakdown
	// SleepPolicy states how idle gaps are treated by the audit.
	SleepPolicy = schedule.SleepPolicy
	// OnlineResult is the outcome of an online scheduling run.
	OnlineResult = sim.Result
	// OnlineOptions tunes SDEM-ON.
	OnlineOptions = online.Options
	// SyntheticConfig parameterizes the §8.1.2 workload generator.
	SyntheticConfig = workload.SyntheticConfig
	// BenchmarkConfig parameterizes the §8.1.1 benchmark generator.
	BenchmarkConfig = workload.BenchmarkConfig
	// BoundedResult is a bounded-core (NP-hard variant) solution.
	BoundedResult = partition.Result
)

// Sleep policy constants.
const (
	SleepNever     = schedule.SleepNever
	SleepAlways    = schedule.SleepAlways
	SleepBreakEven = schedule.SleepBreakEven
)

// Task model constants.
const (
	ModelCommonDeadline = task.ModelCommonDeadline
	ModelCommonRelease  = task.ModelCommonRelease
	ModelAgreeable      = task.ModelAgreeable
	ModelGeneral        = task.ModelGeneral
)

// Benchmark kernels.
const (
	KernelFFT    = workload.KernelFFT
	KernelMatMul = workload.KernelMatMul
	KernelMixed  = workload.KernelMixed
)

// CortexA57 returns the ARM Cortex-A57 core model of the paper's
// evaluation (§8.1.3).
func CortexA57() Core { return power.CortexA57() }

// DefaultSystem returns the paper's default platform: eight Cortex-A57
// cores, α_m = 4 W, ξ_m = 40 ms.
func DefaultSystem() System { return power.DefaultSystem() }

// MHz converts MHz to Hz; Milliseconds converts ms to seconds.
func MHz(f float64) float64          { return power.MHz(f) }
func Milliseconds(t float64) float64 { return power.Milliseconds(t) }

// Solution is an offline scheduling solution; Scheme names the paper
// section whose algorithm produced it.
type Solution = core.Solution

// Solve computes an optimal offline schedule for the task set on the
// unbounded-core platform, dispatching per Table 1 of the paper: the §4
// schemes for common-release sets and the §5 dynamic programs for
// agreeable-deadline sets, each in its α = 0 / α ≠ 0 / transition-overhead
// variant according to sys. General task sets have no offline optimal
// algorithm in the paper; use ScheduleOnline for them.
func Solve(tasks TaskSet, sys System) (*Solution, error) {
	return core.SolveCtx(nil, tasks, sys, nil)
}

// Telemetry is the module's metrics/trace recorder. A nil *Telemetry is
// the valid disabled state: every recording method on it is a no-op, so
// instrumented code needs no conditionals and pays nothing when
// observability is off.
type Telemetry = telemetry.Recorder

// NewTelemetry returns an enabled recorder to pass to SolveCtx,
// OnlineOptions.Telemetry, RecoveryPolicy.Telemetry, or the
// experiment harness.
func NewTelemetry() *Telemetry { return telemetry.New() }

// WriteOpenMetrics renders a recorder's current metric state as
// Prometheus/OpenMetrics text exposition — the format served at GET
// /metrics by cmd/sdemd. The snapshot is taken atomically and rendered
// in sorted (name, labels) order, so the exposition is byte-identical
// for a fixed computation; samples carry no timestamps (the scraper
// assigns wall time), so virtual schedule/sim time never leaks out. A
// nil recorder writes an empty exposition ("# EOF" only).
func WriteOpenMetrics(w io.Writer, tel *Telemetry) error {
	return export.WriteOpenMetrics(w, tel.Snapshot())
}

// SolveCtx is Solve with a cooperative-cancellation context and
// telemetry. The solvers poll ctx at iteration boundaries (the agreeable
// DP per memo row) and abandon the solve with an error wrapping ctx's
// error once the context is done. Use it to bound solve latency with a
// deadline budget — cmd/sdemd threads every request's budget through
// here. Solver counters and timings are recorded in tel under
// sdem.solver.*. A nil ctx never cancels and a nil tel records nothing;
// runs that complete are bit-identical to Solve's.
func SolveCtx(ctx context.Context, tasks TaskSet, sys System, tel *Telemetry) (*Solution, error) {
	return core.SolveCtx(ctx, tasks, sys, tel)
}

// ComponentEnergy attributes an online run's audited energy to the four
// components of the paper's model: core dynamic, core static, memory
// static, and transition overhead. Obtain one from
// OnlineResult.EnergyBreakdown or ComponentBreakdown.
type ComponentEnergy = sim.EnergyBreakdown

// ComponentBreakdown folds an audited EnergyBreakdown into the
// four-component attribution; the components sum to the audit total.
func ComponentBreakdown(b EnergyBreakdown) ComponentEnergy {
	return sim.ComponentBreakdown(b)
}

// ScheduleOnline runs the SDEM-ON heuristic of §6 (with the §7
// transition-overhead handling when sys carries break-even times).
func ScheduleOnline(tasks TaskSet, sys System, opts OnlineOptions) (*OnlineResult, error) {
	return online.Schedule(tasks, sys, opts)
}

// MBKP runs the memory-oblivious multi-core DVS baseline of the
// evaluation.
func MBKP(tasks TaskSet, sys System, cores int) (*OnlineResult, error) {
	return baseline.MBKP(tasks, sys, cores, nil)
}

// MBKPS runs MBKP with the naive sleep-whenever-idle memory scheme.
func MBKPS(tasks TaskSet, sys System, cores int) (*OnlineResult, error) {
	return baseline.MBKPS(tasks, sys, cores, nil)
}

// RaceToIdle runs every task at maximum speed and sleeps — one pole of
// the title question.
func RaceToIdle(tasks TaskSet, sys System, cores int) (*OnlineResult, error) {
	return baseline.RaceToIdle(tasks, sys, cores, nil)
}

// CriticalSpeedPolicy runs every task at the per-core optimal critical
// speed — the other pole.
func CriticalSpeedPolicy(tasks TaskSet, sys System, cores int) (*OnlineResult, error) {
	return baseline.CriticalSpeed(tasks, sys, cores, nil)
}

// SolveBounded schedules a common-release, common-deadline set on the
// bounded number of cores declared by sys.Cores (the NP-hard variant of
// Theorem 1): an exact partition for small sets, the LPT heuristic
// otherwise.
func SolveBounded(tasks TaskSet, sys System, exact bool) (*BoundedResult, error) {
	return partition.Solve(tasks, sys, exact)
}

// SolveBoundedGeneral schedules a common-release set with individual
// deadlines on the bounded core count of sys.Cores — the practical
// variant between Theorem 1's common-deadline case and the unbounded §4
// schemes (EDF worst-fit assignment + shared busy-length optimization).
func SolveBoundedGeneral(tasks TaskSet, sys System) (*BoundedResult, error) {
	return partition.SolveGeneralDeadlines(tasks, sys)
}

// Audit independently derives the energy breakdown of a schedule under
// the system model — the same accounting every solver in this module is
// tested against.
func Audit(s *Schedule, sys System) EnergyBreakdown {
	return schedule.Audit(s, sys)
}

// Validate checks a schedule for real-time feasibility against its task
// set (deadlines, workloads, non-migration, optional speed cap).
func Validate(s *Schedule, tasks TaskSet, speedMax float64) error {
	return s.Validate(tasks, schedule.ValidateOptions{SpeedMax: speedMax})
}

// Gantt renders the schedule as a text Gantt chart with a memory row.
func Gantt(s *Schedule) string {
	return trace.Render(s, trace.Options{})
}

// GanttSVG renders the schedule as a self-contained SVG document with
// speed-coloured segments and a memory lane.
func GanttSVG(s *Schedule, title string) string {
	return trace.SVG(s, trace.SVGOptions{Title: title})
}

// CortexA7 returns the LITTLE-core companion preset for heterogeneous
// (big.LITTLE) experiments.
func CortexA7() Core { return power.CortexA7() }

// Stream is one periodic (or sporadic, via Jitter) real-time task
// stream; PeriodicSystem is a set of streams.
type (
	Stream         = workload.PeriodicStream
	PeriodicSystem = workload.PeriodicSystem
)

// ExpandStreams instantiates every job the streams release in
// [0, horizon) as a task set (deterministic in the seed).
func ExpandStreams(streams PeriodicSystem, horizon float64, seed int64) (TaskSet, error) {
	return streams.Expand(horizon, seed)
}

// LowerBound returns a certified lower bound on the energy of any
// feasible schedule of the task set — core per-cycle minima plus the
// memory's weighted-disjoint-window occupancy bound.
func LowerBound(tasks TaskSet, sys System) float64 {
	return core.LowerBound(tasks, sys)
}

// Ladder is a finite set of DVS operating frequencies.
type Ladder = discrete.Ladder

// CortexA57Ladder returns the 200 MHz-step A57 operating points.
func CortexA57Ladder() Ladder { return discrete.CortexA57Ladder() }

// Quantize maps a continuous-speed schedule onto a frequency ladder via
// the Ishihara–Yasuura two-level split (§3's continuous-to-discrete
// transform): same work, same windows, minimum-energy realization on the
// ladder.
func Quantize(s *Schedule, ladder Ladder) (*Schedule, error) {
	return discrete.Quantize(s, ladder)
}

// SolveHeterogeneous solves the §4.2 common-release problem when each
// task's core has its own power model (the heterogeneous-core extension
// noted at the end of §4). cores[i] is task i's core; all must share λ.
func SolveHeterogeneous(tasks TaskSet, cores []Core, mem Memory) (*Solution, error) { //lint:allow auditcheck: wraps the hetero solver's already-normalized schedule
	sol, err := commonrelease.SolveHetero(tasks, cores, mem)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Schedule: sol.Schedule,
		Energy:   sol.Energy,
		Model:    tasks.Classify(),
		Scheme:   "§4.2-hetero",
	}, nil
}

// AuditPerCore audits a schedule on heterogeneous cores: cores[i] is the
// model of core i.
func AuditPerCore(s *Schedule, cores []Core, mem Memory) EnergyBreakdown {
	return schedule.AuditPerCore(s, cores, mem)
}

// Sentinel errors shared across the solvers and the resilient runtime.
// Branch on them with errors.Is; the original messages are preserved as
// wrapping context.
var (
	// ErrInfeasible marks instances no schedule can satisfy (or
	// structurally broken inputs).
	ErrInfeasible = schedule.ErrInfeasible
	// ErrDeadlineMiss marks schedules that run work past its deadline.
	ErrDeadlineMiss = schedule.ErrDeadlineMiss
	// ErrSpeedCap marks schedules commanding speeds beyond s_up.
	ErrSpeedCap = schedule.ErrSpeedCap
)

// Fault injection and graceful degradation.
type (
	// Fault is one typed deviation from the plan (overrun, wake latency,
	// speed cap, spurious wake, late release).
	Fault = faults.Fault
	// FaultKind classifies a Fault.
	FaultKind = faults.Kind
	// FaultPlan is a replayable set of faults.
	FaultPlan = faults.Plan
	// FaultConfig tunes GenerateFaults.
	FaultConfig = faults.Config
	// RecoveryPolicy selects the recovery actions the resilient runtime
	// may take.
	RecoveryPolicy = resilient.Policy
	// RecoveryAction names one recovery chain step.
	RecoveryAction = resilient.Action
	// Recovery is one logged recovery attempt.
	Recovery = resilient.Recovery
	// RecoveryLog is the recovery audit trail of a run.
	RecoveryLog = resilient.RecoveryLog
	// ExecuteResult is the outcome of a fault-perturbed replay.
	ExecuteResult = resilient.Result
	// Miss describes one deadline miss (who, by how much, and why).
	Miss = schedule.Miss
	// MissClass attributes a miss (planned / fault-induced / averted).
	MissClass = schedule.MissClass
)

// Fault kind constants.
const (
	FaultOverrun      = faults.Overrun
	FaultWakeLatency  = faults.WakeLatency
	FaultSpeedCap     = faults.SpeedCap
	FaultSpuriousWake = faults.SpuriousWake
	FaultLateRelease  = faults.LateRelease
)

// Recovery action constants.
const (
	RecoveryBoost  = resilient.ActionBoost
	RecoveryReplan = resilient.ActionReplan
	RecoveryRace   = resilient.ActionRace
)

// Miss classification constants.
const (
	MissPlanned      = schedule.MissPlanned
	MissFaultInduced = schedule.MissFaultInduced
	MissAverted      = schedule.MissAverted
)

// DefaultRecovery enables the full recovery chain (boost, re-plan, race);
// NoRecovery disables all recovery for baseline fault replays.
func DefaultRecovery() RecoveryPolicy { return resilient.DefaultPolicy() }
func NoRecovery() RecoveryPolicy      { return resilient.NoRecovery() }

// GenerateFaults draws a fault plan for the task set, deterministic in
// the seed (the replayability guarantee Execute builds on).
func GenerateFaults(cfg FaultConfig, tasks TaskSet, sys System, seed int64) FaultPlan {
	return faults.Generate(cfg, tasks, sys, seed)
}

// Execute replays a schedule through a fault-perturbed execution with
// graceful degradation: impending misses are detected at checkpoint
// boundaries and countered by the recovery chain the policy enables
// (local speed boost, §4 re-plan, race to idle), every action logged.
// With an empty fault plan the replay reproduces the input schedule
// exactly.
func Execute(sched *Schedule, tasks TaskSet, sys System, plan FaultPlan, pol RecoveryPolicy) (*ExecuteResult, error) {
	return resilient.Execute(sched, tasks, sys, plan, pol)
}

// SyntheticWorkload draws the paper's §8.1.2 random task set.
func SyntheticWorkload(cfg SyntheticConfig, seed int64) (TaskSet, error) {
	return workload.Synthetic(cfg, seed)
}

// BenchmarkWorkload draws the paper's §8.1.1 DSPstone-style benchmark
// task set.
func BenchmarkWorkload(cfg BenchmarkConfig, seed int64) (TaskSet, error) {
	return workload.Benchmark(cfg, seed)
}
