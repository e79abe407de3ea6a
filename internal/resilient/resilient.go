// Package resilient is the closed-loop runtime of the SDEM reproduction:
// it replays any offline or online schedule through a fault-perturbed
// execution, detects impending deadline misses from slack accounting at
// checkpoint boundaries, and degrades gracefully through an explicit,
// auditable recovery chain.
//
// Every solver in this module produces a plan that assumes the model is
// exact: workloads match WCET, the memory wakes in ξ_m, cores reach their
// commanded speeds. The paper's procrastination makes those plans
// maximally fragile — sleep is stretched right up to each task's latest
// execution point d_j − p_j. This package is the layer that keeps
// deadlines when the model is wrong:
//
//	plan → inject (internal/faults) → detect → recover → audit
//
// The recovery chain, attempted in order at each detection:
//
//  1. Local speed boost: the affected task alone accelerates to the
//     minimum speed that still meets its deadline, up to s_up. Cheapest
//     action; preserves the rest of the plan (and its memory sleep).
//  2. Global re-plan: all released unfinished work is treated as a
//     common-release instance at the current instant and re-solved with
//     the §4 optimum (the same planning path SDEM-ON uses on arrivals) —
//     restores an energy-optimal aligned busy block after the plan has
//     drifted too far for a local fix.
//  3. Race to idle: the affected task runs at s_up immediately. The last
//     resort; if even racing misses, the miss is recorded (never silently
//     dropped) and execution continues so the audit covers the late
//     completion.
//
// Every attempt is recorded in a RecoveryLog with its estimated energy
// cost, so degradation under faults is fully auditable. A run is
// deterministic in (schedule, tasks, system, fault plan, policy); with an
// empty fault plan the replay reproduces the input schedule bit-for-bit.
package resilient

import (
	"errors"
	"fmt"
	"math"

	"sdem/internal/faults"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// Policy selects which recovery actions the runtime may take and tunes
// detection granularity. The zero value disables all recovery (pure
// fault replay — the "no runtime" baseline).
type Policy struct {
	// SpeedBoost enables recovery step 1 (local acceleration to s_up).
	SpeedBoost bool
	// Replan enables recovery step 2 (global §4 re-plan at the instant).
	Replan bool
	// Race enables recovery step 3 (race-to-idle fallback).
	Race bool
	// Checkpoints is the number of detection slices each planned segment
	// is split into while faults are active (default 4). Detection
	// latency is one slice; more checkpoints detect overruns earlier at
	// the cost of simulation work. With an empty fault plan segments are
	// never split, so the replay is bit-identical to the plan.
	Checkpoints int
	// MaxRecoveries bounds recovery attempts per job (default 8), so a
	// persistent fault (e.g. a long thermal cap) cannot loop forever.
	MaxRecoveries int
	// PlanAlphaZero forwards to the §4 re-planner (see
	// online.Options.PlanAlphaZero).
	PlanAlphaZero bool
	// Telemetry, when non-nil, records detection/recovery metrics and
	// trace events (sdem.resilient.* plus the executor's sdem.sim.* series).
	Telemetry *telemetry.Recorder
}

// DefaultPolicy enables the full recovery chain with default detection.
func DefaultPolicy() Policy {
	return Policy{SpeedBoost: true, Replan: true, Race: true}
}

// NoRecovery disables every recovery action: faults are injected and
// their misses reported, but nothing fights back. This is the baseline
// the recovery chain is measured against.
func NoRecovery() Policy { return Policy{} }

func (p Policy) withDefaults() Policy {
	if p.Checkpoints <= 0 {
		p.Checkpoints = 4
	}
	if p.MaxRecoveries <= 0 {
		p.MaxRecoveries = 8
	}
	return p
}

func (p Policy) anyRecovery() bool { return p.SpeedBoost || p.Replan || p.Race }

// Action names one recovery step.
type Action int

const (
	// ActionBoost is the local speed boost (chain step 1).
	ActionBoost Action = iota
	// ActionReplan is the global §4 re-plan (chain step 2).
	ActionReplan
	// ActionRace is the race-to-idle fallback (chain step 3).
	ActionRace
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionBoost:
		return "boost"
	case ActionReplan:
		return "replan"
	case ActionRace:
		return "race"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Recovery is one attempted recovery action.
type Recovery struct {
	// Time is the detection instant the action was taken at.
	Time float64
	// TaskID is the job whose impending miss triggered the action.
	TaskID int
	// Action is the chain step taken.
	Action Action
	// Reason describes the detected threat.
	Reason string
	// EnergyDelta estimates the core energy of the recovery segments
	// minus the cancelled planned segments (joules; negative when the
	// recovery shortens busy time, e.g. racing).
	EnergyDelta float64
	// Succeeded reports whether the action's projection met the deadline
	// at the time it was taken.
	Succeeded bool
}

// String implements fmt.Stringer.
func (r Recovery) String() string {
	outcome := "projected miss"
	if r.Succeeded {
		outcome = "ok"
	}
	return fmt.Sprintf("t=%.6gs task %d %s (%s): %s, ΔE≈%+.4g J",
		r.Time, r.TaskID, r.Action, r.Reason, outcome, r.EnergyDelta)
}

// RecoveryLog records every recovery attempt of a run, in time order.
type RecoveryLog []Recovery

// Count returns the number of logged attempts of one action.
func (l RecoveryLog) Count(a Action) int {
	n := 0
	for _, r := range l {
		if r.Action == a {
			n++
		}
	}
	return n
}

// Result is the outcome of a fault-perturbed replay.
type Result struct {
	// Sim carries the executed schedule, its audit, response metrics and
	// raw miss list, exactly as a plain online run would.
	Sim *sim.Result
	// Recoveries is the full recovery audit trail.
	Recoveries RecoveryLog
	// PlannedMisses are misses already present in the unperturbed input
	// schedule (class MissPlanned).
	PlannedMisses []schedule.Miss
	// FaultMisses are misses the injected faults caused and the recovery
	// chain could not absorb (class MissFaultInduced).
	FaultMisses []schedule.Miss
	// Averted are fault-threatened deadlines the recovery chain met
	// (class MissAverted): recorded so degradation is auditable even when
	// nothing was lost.
	Averted []schedule.Miss
	// SpuriousWakeEnergy is the extra memory energy of spurious wakeups
	// that interrupted actual sleep (α_m·duration + one transition each).
	SpuriousWakeEnergy float64
	// WakeStallEnergy is the extra memory energy of prolonged wake
	// transitions (α_m · extra latency per triggered wake fault).
	WakeStallEnergy float64
	// Energy is the total audited energy including the fault extras.
	Energy float64
}

// Execute replays the schedule for the task set on the platform through
// the fault plan under the recovery policy. The input schedule must be
// normalized and consistent with the task set up to planned misses: a
// late or incomplete task in the input is tolerated and classified as a
// planned miss, but structural violations (overlaps, migration, unknown
// tasks) are errors.
//
// With an empty fault plan and any policy, the replay reproduces the
// input schedule exactly — same segments, same audited energy.
func Execute(sched *schedule.Schedule, tasks task.Set, sys power.System, plan faults.Plan, pol Policy) (*Result, error) {
	if sched == nil {
		return nil, fmt.Errorf("resilient: nil schedule: %w", schedule.ErrInfeasible)
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("resilient: %w", err)
	}
	if err := structuralCheck(sched, tasks, sys); err != nil {
		return nil, err
	}
	e, err := newExecutor(sched, tasks, sys, plan, pol.withDefaults())
	if err != nil {
		return nil, err
	}
	return e.run()
}

// structuralCheck validates the input schedule, tolerating deadline and
// delivery shortfalls (those become planned misses) but rejecting
// structural violations.
func structuralCheck(sched *schedule.Schedule, tasks task.Set, sys power.System) error {
	err := sched.Validate(tasks, schedule.ValidateOptions{SpeedMax: sys.Core.SpeedMax})
	switch {
	case err == nil:
		return nil
	case errorsIsAny(err, schedule.ErrDeadlineMiss, schedule.ErrInfeasible):
		// Late or undelivered work in the plan itself: replayable; the
		// run classifies the outcome as a planned miss.
		return nil
	default:
		return fmt.Errorf("resilient: input schedule: %w", err)
	}
}

// plannedMisses derives the miss set of the unperturbed input schedule:
// tasks whose planned segments end past their deadline or deliver less
// than their workload.
func plannedMisses(sched *schedule.Schedule, tasks task.Set) map[int]bool {
	delivered := make(map[int]float64, len(tasks))
	latest := make(map[int]float64, len(tasks))
	for _, segs := range sched.Cores {
		for _, sg := range segs {
			delivered[sg.TaskID] += sg.Cycles()
			latest[sg.TaskID] = math.Max(latest[sg.TaskID], sg.End)
		}
	}
	out := make(map[int]bool)
	for _, t := range tasks {
		tol := schedule.Tol * math.Max(1, t.Workload) * 10
		if delivered[t.ID] < t.Workload-tol || latest[t.ID] > t.Deadline+schedule.Tol {
			out[t.ID] = true
		}
	}
	return out
}

func errorsIsAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}
