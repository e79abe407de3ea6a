package core

import (
	"errors"
	"math"
	"testing"

	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
)

func sys(static bool, overhead bool) power.System {
	s := power.DefaultSystem()
	if !static {
		s.Core.Static = 0
	}
	if !overhead {
		s.Core.BreakEven = 0
		s.Memory.BreakEven = 0
	}
	return s
}

func TestSchemeDispatchTable1(t *testing.T) {
	ms := power.Milliseconds
	common := task.Set{
		{ID: 1, Release: 0, Deadline: ms(60), Workload: 3e6},
		{ID: 2, Release: 0, Deadline: ms(90), Workload: 4e6},
	}
	agreeable := task.Set{
		{ID: 1, Release: 0, Deadline: ms(50), Workload: 3e6},
		{ID: 2, Release: ms(20), Deadline: ms(110), Workload: 4e6},
	}
	cases := []struct {
		name   string
		tasks  task.Set
		sys    power.System
		scheme string
		model  task.Model
	}{
		{"common α=0", common, sys(false, false), "§4.1", task.ModelCommonRelease},
		{"common α≠0", common, sys(true, false), "§4.2", task.ModelCommonRelease},
		{"common overhead", common, sys(true, true), "§4.2+§7", task.ModelCommonRelease},
		{"agreeable α=0", agreeable, sys(false, false), "§5.1", task.ModelAgreeable},
		{"agreeable α≠0", agreeable, sys(true, false), "§5.2", task.ModelAgreeable},
		{"agreeable overhead", agreeable, sys(true, true), "§5.2+§7", task.ModelAgreeable},
	}
	for _, tc := range cases {
		sol, err := SolveCtx(nil, tc.tasks, tc.sys, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sol.Scheme != tc.scheme {
			t.Errorf("%s: scheme = %q, want %q", tc.name, sol.Scheme, tc.scheme)
		}
		if sol.Model != tc.model {
			t.Errorf("%s: model = %v, want %v", tc.name, sol.Model, tc.model)
		}
		if err := sol.Schedule.Validate(tc.tasks, schedule.ValidateOptions{SpeedMax: tc.sys.Core.SpeedMax}); err != nil {
			t.Errorf("%s: invalid schedule: %v", tc.name, err)
		}
		// The declared energy must equal an independent audit.
		if b := schedule.Audit(sol.Schedule, tc.sys); math.Abs(b.Total()-sol.Energy) > 1e-9*math.Max(1, sol.Energy) {
			t.Errorf("%s: audit %g != declared %g", tc.name, b.Total(), sol.Energy)
		}
	}
}

func TestGeneralModelRejectedWithTypedError(t *testing.T) {
	general := task.Set{
		{ID: 1, Release: 0, Deadline: 1, Workload: 1e6},
		{ID: 2, Release: 0.1, Deadline: 0.5, Workload: 1e6},
	}
	_, err := SolveCtx(nil, general, sys(true, false), nil)
	var ge ErrGeneralOffline
	if !errors.As(err, &ge) {
		t.Fatalf("want ErrGeneralOffline, got %v", err)
	}
	if ge.Model != task.ModelGeneral {
		t.Errorf("error model = %v", ge.Model)
	}
	// The same set schedules fine online.
	res, err := online.Schedule(general, sys(true, false), online.Options{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Misses) != 0 {
		t.Errorf("online misses: %v", res.Misses)
	}
}

func TestOnlineNeverBeatsOfflineOnSolvableModels(t *testing.T) {
	// The online heuristic re-plans optimally at each arrival but commits
	// greedily; on offline-solvable models it must not beat the offline
	// optimum (sanity of both).
	ms := power.Milliseconds
	s := sys(true, false)
	agreeableSets := []task.Set{
		{
			{ID: 1, Release: 0, Deadline: ms(70), Workload: 3e6},
			{ID: 2, Release: ms(10), Deadline: ms(100), Workload: 4e6},
			{ID: 3, Release: ms(40), Deadline: ms(140), Workload: 2e6},
		},
		{
			{ID: 1, Release: 0, Deadline: ms(120), Workload: 5e6},
			{ID: 2, Release: ms(200), Deadline: ms(320), Workload: 5e6},
		},
	}
	for i, tasks := range agreeableSets {
		off, err := SolveCtx(nil, tasks, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		on, err := online.Schedule(tasks, s, online.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if on.Energy < off.Energy*(1-1e-6) {
			t.Errorf("set %d: online %.9g beats offline optimum %.9g — one of them is wrong",
				i, on.Energy, off.Energy)
		}
	}
}
