package core

import (
	"context"
	"errors"
	"testing"

	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

func ctxTasksAgreeable() task.Set {
	return task.Set{
		{ID: 0, Release: 0, Deadline: 0.05, Workload: 2e6},
		{ID: 1, Release: 0.01, Deadline: 0.08, Workload: 3e6},
		{ID: 2, Release: 0.03, Deadline: 0.12, Workload: 1e6},
	}
}

func TestSolveCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := power.DefaultSystem()

	if _, err := SolveCtx(ctx, ctxTasksAgreeable(), sys, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("agreeable SolveCtx with cancelled ctx: err = %v, want context.Canceled", err)
	}
	common := task.Set{
		{ID: 0, Deadline: 0.05, Workload: 2e6},
		{ID: 1, Deadline: 0.08, Workload: 3e6},
	}
	if _, err := SolveCtx(ctx, common, sys, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("common-release SolveCtx with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestSolveCtxNilAndLiveAgree pins that neither a live context nor a
// live recorder changes the solve: both must match the nil-ctx,
// recorder-off run bit for bit.
func TestSolveCtxNilAndLiveAgree(t *testing.T) {
	sys := power.DefaultSystem()
	ts := ctxTasksAgreeable()
	want, err := SolveCtx(nil, ts, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, ctx := range map[string]context.Context{"nil": nil, "live": context.Background()} {
		got, err := SolveCtx(ctx, ts, sys, telemetry.New())
		if err != nil {
			t.Fatalf("%s ctx: %v", name, err)
		}
		if got.Energy != want.Energy || got.Scheme != want.Scheme {
			t.Fatalf("%s ctx solve diverged: got (%g, %s), want (%g, %s)",
				name, got.Energy, got.Scheme, want.Energy, want.Scheme)
		}
	}
}

func TestScheduleOnlineCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ts := task.Set{
		{ID: 0, Release: 0, Deadline: 0.05, Workload: 2e6},
		{ID: 1, Release: 0.02, Deadline: 0.07, Workload: 2e6},
	}
	_, err := online.Schedule(ts, power.DefaultSystem(), online.Options{Cores: 2, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("online.Schedule with cancelled ctx: err = %v, want context.Canceled", err)
	}
}
