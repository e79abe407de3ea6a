package workload_test

import (
	"testing"

	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/workload"
)

func TestPeriodicStreamsThroughSDEMON(t *testing.T) {
	// End-to-end: a control loop plus a telemetry stream scheduled by
	// SDEM-ON with zero misses.
	sys := workload.PeriodicSystem{
		{ID: 1, Name: "ctrl", Period: power.Milliseconds(50), Window: power.Milliseconds(20), Workload: 3e6},
		{ID: 2, Name: "telem", Period: power.Milliseconds(120), Window: power.Milliseconds(100), Workload: 5e6, Offset: power.Milliseconds(10)},
	}
	jobs, err := sys.Expand(1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	plat := power.DefaultSystem()
	res, err := online.Schedule(jobs, plat, online.Options{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Misses) != 0 {
		t.Fatalf("misses: %v", res.Misses)
	}
	if err := res.Schedule.Validate(jobs, schedule.ValidateOptions{SpeedMax: plat.Core.SpeedMax}); err != nil {
		t.Fatal(err)
	}
}
