// Package core is the paper's primary contribution assembled into one
// solver: Sleep- and DVS-aware system-wide Energy Minimization (SDEM).
//
// Given a task set and a platform model it dispatches to the optimal
// scheme of Table 1 — §4 for common-release sets, §5 for
// agreeable-deadline sets, each in its α = 0 / α ≠ 0 / §7
// transition-overhead variant. General sets have no offline optimum; the
// §6 SDEM-ON heuristic (internal/online) schedules them. Auto is that
// choice, and LookupScheduler is the one table from a scheduler name to
// SDEM-ON or a §8 baseline. Every path returns the same Schedule IR,
// independently audited.
package core

import (
	"context"
	"fmt"

	"sdem/internal/agreeable"
	"sdem/internal/commonrelease"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// Solution is an offline optimal SDEM schedule.
type Solution struct {
	// Schedule is the constructed schedule.
	Schedule *schedule.Schedule
	// Energy is the audited system-wide energy in joules.
	Energy float64
	// Model is the task model the solver dispatched on.
	Model task.Model
	// Scheme names the paper section whose algorithm produced the
	// solution (e.g. "§4.2", "§5.1+§7").
	Scheme string
}

// ErrGeneralOffline is returned when an offline optimum is requested for
// a general task set, for which the paper gives no optimal algorithm.
type ErrGeneralOffline struct{ Model task.Model }

// Error implements error.
func (e ErrGeneralOffline) Error() string {
	return fmt.Sprintf("core: no offline optimal scheme for %v task sets; use ScheduleOnline", e.Model)
}

// schemeName maps the dispatch to the paper's section numbering.
func schemeName(model task.Model, sys power.System) string {
	var base string
	switch model {
	case task.ModelEmpty, task.ModelCommonDeadline, task.ModelCommonRelease:
		if sys.Core.Static > 0 {
			base = "§4.2"
		} else {
			base = "§4.1"
		}
	default:
		if sys.Core.Static > 0 {
			base = "§5.2"
		} else {
			base = "§5.1"
		}
	}
	if sys.Model() == power.ModelOverhead {
		base += "+§7"
	}
	return base
}

// SolveCtx computes the offline optimal SDEM schedule on the
// unbounded-core platform, dispatching per Table 1. The cooperative-
// cancellation context is threaded into the sub-solvers: the agreeable DP
// polls it at row boundaries, the §4 schemes are O(n) and covered by the
// entry check. A nil ctx never cancels; a nil tel is the uninstrumented
// path. A cancelled solve returns an error wrapping ctx's error
// (context.DeadlineExceeded / context.Canceled).
func SolveCtx(ctx context.Context, tasks task.Set, sys power.System, tel *telemetry.Recorder) (*Solution, error) { //lint:allow auditcheck: wraps sub-solver solutions whose schedules are normalized by the callee
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	model := tasks.Classify()
	switch model {
	case task.ModelEmpty, task.ModelCommonDeadline, task.ModelCommonRelease:
		sol, err := commonrelease.Solve(tasks, sys, tel)
		if err != nil {
			return nil, err
		}
		return &Solution{
			Schedule: sol.Schedule,
			Energy:   sol.Energy,
			Model:    model,
			Scheme:   schemeName(model, sys),
		}, nil
	case task.ModelAgreeable:
		sol, err := agreeable.SolveCtx(ctx, tasks, sys, tel)
		if err != nil {
			return nil, err
		}
		return &Solution{
			Schedule: sol.Schedule,
			Energy:   sol.Energy,
			Model:    model,
			Scheme:   schemeName(model, sys),
		}, nil
	default:
		return nil, ErrGeneralOffline{Model: model}
	}
}
