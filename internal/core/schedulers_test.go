package core

import (
	"errors"
	"reflect"
	"testing"

	"sdem/internal/baseline"
	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// tableSets are fixed general, agreeable and common-release sets. The
// general set nests windows and, on two cores, queues work.
func tableSets() map[string]task.Set {
	ms := power.Milliseconds
	return map[string]task.Set{
		"general": {
			{ID: 1, Release: 0, Deadline: ms(120), Workload: 4e6},
			{ID: 2, Release: ms(10), Deadline: ms(50), Workload: 2e6},
			{ID: 3, Release: ms(15), Deadline: ms(70), Workload: 3e6},
			{ID: 4, Release: ms(40), Deadline: ms(200), Workload: 5e6},
			{ID: 5, Release: ms(90), Deadline: ms(130), Workload: 2e6},
			{ID: 6, Release: ms(300), Deadline: ms(380), Workload: 3e6},
		},
		"agreeable": ctxTasksAgreeable(),
		"common": {
			{ID: 1, Release: 0, Deadline: ms(60), Workload: 3e6},
			{ID: 2, Release: 0, Deadline: ms(90), Workload: 4e6},
			{ID: 3, Release: 0, Deadline: ms(40), Workload: 1e6},
		},
	}
}

// TestLookupSchedulerMatchesDirectCalls pins each table entry to the
// direct call it names on sys.Cores cores: the same result and the same
// recorded telemetry.
func TestLookupSchedulerMatchesDirectCalls(t *testing.T) {
	s := power.DefaultSystem()
	s.Cores = 2
	direct := map[string]func(task.Set, *telemetry.Recorder) (*sim.Result, error){
		"sdem-on": func(ts task.Set, tel *telemetry.Recorder) (*sim.Result, error) {
			return online.Schedule(ts, s, online.Options{Cores: s.Cores, Telemetry: tel})
		},
		"mbkp": func(ts task.Set, tel *telemetry.Recorder) (*sim.Result, error) {
			return baseline.MBKP(ts, s, s.Cores, tel)
		},
		"mbkps": func(ts task.Set, tel *telemetry.Recorder) (*sim.Result, error) {
			return baseline.MBKPS(ts, s, s.Cores, tel)
		},
		"race": func(ts task.Set, tel *telemetry.Recorder) (*sim.Result, error) {
			return baseline.RaceToIdle(ts, s, s.Cores, tel)
		},
		"critical": func(ts task.Set, tel *telemetry.Recorder) (*sim.Result, error) {
			return baseline.CriticalSpeed(ts, s, s.Cores, tel)
		},
	}
	for name, call := range direct {
		run, err := LookupScheduler(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for setName, ts := range tableSets() {
			gotTel, wantTel := telemetry.New(), telemetry.New()
			got, err := run(nil, ts, s, gotTel)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, setName, err)
			}
			want, err := call(ts, wantTel)
			if err != nil {
				t.Fatalf("direct %s on %s: %v", name, setName, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: table result differs from the direct call", name, setName)
			}
			if g, w := gotTel.Snapshot(), wantTel.Snapshot(); !reflect.DeepEqual(g, w) {
				t.Errorf("%s on %s: table telemetry differs from the direct call", name, setName)
			}
		}
	}
}

func TestLookupSchedulerUnknownName(t *testing.T) {
	for _, name := range []string{"", "auto", "bounded", "SDEM-ON", "nope"} {
		run, err := LookupScheduler(name)
		var unknown ErrUnknownScheduler
		if run != nil || !errors.As(err, &unknown) || unknown.Name != name {
			t.Fatalf("%q: got (%v, %v), want ErrUnknownScheduler", name, run != nil, err)
		}
	}
	_, err := LookupScheduler("nope")
	if want := `unknown scheduler "nope" (want sdem-on, mbkp, mbkps, race or critical)`; err.Error() != want {
		t.Errorf("error text %q, want %q", err.Error(), want)
	}
}

// TestAutoPlansOfflineOrSDEMON pins Auto to SolveCtx on the models that
// have an offline scheme and to SDEM-ON on sys.Cores cores otherwise.
func TestAutoPlansOfflineOrSDEMON(t *testing.T) {
	s := power.DefaultSystem()
	s.Cores = 3
	for name, ts := range tableSets() {
		sol, res, err := Auto(nil, ts, s, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "general" {
			want, err := online.Schedule(ts, s, online.Options{Cores: s.Cores})
			if err != nil {
				t.Fatal(err)
			}
			if sol != nil || !reflect.DeepEqual(res, want) {
				t.Errorf("general: Auto did not run SDEM-ON on %d cores", s.Cores)
			}
			continue
		}
		want, err := SolveCtx(nil, ts, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res != nil || !reflect.DeepEqual(sol, want) {
			t.Errorf("%s: Auto did not return the offline optimum", name)
		}
	}
	bad := task.Set{{ID: 1, Release: 0, Deadline: 1e-6, Workload: 1e12}}
	if sol, res, err := Auto(nil, bad, s, nil); err == nil || sol != nil || res != nil {
		t.Errorf("infeasible set: got (%v, %v, %v), want only an error", sol, res, err)
	}
}

func TestTableSetsCoverEachModel(t *testing.T) {
	want := map[string]task.Model{"general": task.ModelGeneral, "agreeable": task.ModelAgreeable, "common": task.ModelCommonRelease}
	for name, ts := range tableSets() {
		if m := ts.Classify(); m != want[name] {
			t.Errorf("%s set classifies as %v", name, m)
		}
	}
}
