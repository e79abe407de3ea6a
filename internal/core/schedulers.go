package core

import (
	"context"
	"errors"
	"fmt"

	"sdem/internal/baseline"
	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// Scheduler runs one online scheduler over the task set on sys.Cores
// cores and returns the audited result. ctx, when non-nil, bounds an
// SDEM-ON run between re-plans; a nil tel is the uninstrumented path.
type Scheduler func(ctx context.Context, tasks task.Set, sys power.System, tel *telemetry.Recorder) (*sim.Result, error)

// ErrUnknownScheduler is returned by LookupScheduler for a name outside
// its table.
type ErrUnknownScheduler struct{ Name string }

// Error implements error.
func (e ErrUnknownScheduler) Error() string {
	return fmt.Sprintf("unknown scheduler %q (want sdem-on, mbkp, mbkps, race or critical)", e.Name)
}

// LookupScheduler maps a scheduler name to its run function: "sdem-on"
// is the §6 heuristic, and "mbkp", "mbkps", "race" and "critical" are
// the §8 baselines it is compared against.
func LookupScheduler(name string) (Scheduler, error) {
	switch name {
	case "sdem-on":
		return scheduleOnline, nil
	case "mbkp":
		return mbkp, nil
	case "mbkps":
		return mbkps, nil
	case "race":
		return raceToIdle, nil
	case "critical":
		return criticalSpeed, nil
	}
	return nil, ErrUnknownScheduler{Name: name}
}

func scheduleOnline(ctx context.Context, tasks task.Set, sys power.System, tel *telemetry.Recorder) (*sim.Result, error) {
	return online.Schedule(tasks, sys, online.Options{Cores: sys.Cores, Telemetry: tel, Ctx: ctx})
}

func mbkp(_ context.Context, tasks task.Set, sys power.System, tel *telemetry.Recorder) (*sim.Result, error) {
	return baseline.MBKP(tasks, sys, sys.Cores, tel)
}

func mbkps(_ context.Context, tasks task.Set, sys power.System, tel *telemetry.Recorder) (*sim.Result, error) {
	return baseline.MBKPS(tasks, sys, sys.Cores, tel)
}

func raceToIdle(_ context.Context, tasks task.Set, sys power.System, tel *telemetry.Recorder) (*sim.Result, error) {
	return baseline.RaceToIdle(tasks, sys, sys.Cores, tel)
}

func criticalSpeed(_ context.Context, tasks task.Set, sys power.System, tel *telemetry.Recorder) (*sim.Result, error) {
	return baseline.CriticalSpeed(tasks, sys, sys.Cores, tel)
}

// Auto plans a task set the way the "auto" scheduler does: the offline
// optimum when SolveCtx has a scheme for the set, and SDEM-ON on
// sys.Cores cores when it returns ErrGeneralOffline. On success exactly
// one of the two results is non-nil.
func Auto(ctx context.Context, tasks task.Set, sys power.System, tel *telemetry.Recorder) (*Solution, *sim.Result, error) { //lint:allow auditcheck: passes on the schedules of SolveCtx and online.Schedule unchanged
	sol, err := SolveCtx(ctx, tasks, sys, tel)
	var general ErrGeneralOffline
	if !errors.As(err, &general) {
		return sol, nil, err
	}
	res, err := scheduleOnline(ctx, tasks, sys, tel)
	return nil, res, err
}
