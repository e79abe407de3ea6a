package sim

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"sdem/internal/schedule"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// runInstrumented drives a small two-core run with the given recorder
// attached and returns the result.
func runInstrumented(t *testing.T, tel *telemetry.Recorder) *Result {
	t.Helper()
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: 0.2, Workload: 1e8},
		{ID: 2, Release: 0.1, Deadline: 0.6, Workload: 1e8},
	}
	st := admitAll(t, tasks, testSystem(), 2)
	st.SetTelemetry(tel, "test")
	if _, err := st.Run(1, 0, 0, 0.2, 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(2, 1, 0.1, 0.3, 1e9); err != nil {
		t.Fatal(err)
	}
	res, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEnergyBreakdownSumsToTotal is the satellite invariant: the public
// four-component attribution reproduces the audited total.
func TestEnergyBreakdownSumsToTotal(t *testing.T) {
	res := runInstrumented(t, nil)
	e := res.EnergyBreakdown()
	if !almostEq(e.Total(), res.Energy, 1e-9*math.Max(1, res.Energy)) {
		t.Errorf("components sum to %g, audited total %g", e.Total(), res.Energy)
	}
	if e.Dynamic <= 0 || e.CoreStatic <= 0 {
		t.Errorf("expected positive dynamic/core-static energy, got %+v", e)
	}
	// Reaudited results must preserve the invariant under other policies.
	for _, pol := range []schedule.SleepPolicy{schedule.SleepNever, schedule.SleepAlways} {
		r2 := res.Reaudit(testSystem(), pol, pol)
		e2 := r2.EnergyBreakdown()
		if !almostEq(e2.Total(), r2.Energy, 1e-9*math.Max(1, r2.Energy)) {
			t.Errorf("reaudit %v: components sum to %g, total %g", pol, e2.Total(), r2.Energy)
		}
	}
}

func TestPoolTelemetryMetricsAndTrace(t *testing.T) {
	tel := telemetry.New()
	res := runInstrumented(t, tel)

	var buf bytes.Buffer
	if err := tel.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"counter sdem.sim.segments{sched=test} 2",
		"counter sdem.sim.runs{sched=test} 1",
		"counter sdem.sim.misses{sched=test} 0",
		"float sdem.sim.energy_j{component=dynamic,sched=test}",
		"float sdem.sim.energy_j{component=core_static,sched=test}",
		"float sdem.sim.energy_j{component=memory_static,sched=test}",
		"float sdem.sim.energy_j{component=transition,sched=test}",
		"hist sdem.sim.segment_s{sched=test} count=2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, out)
		}
	}

	// The recorded component sums must equal the result's attribution.
	e := res.EnergyBreakdown()
	wantDyn := strconv.FormatFloat(e.Dynamic, 'g', -1, 64)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "float sdem.sim.energy_j{component=dynamic,") {
			if !strings.HasSuffix(line, " "+wantDyn) {
				t.Errorf("dynamic energy metric %q != breakdown %g", line, e.Dynamic)
			}
		}
	}

	events := tel.Events()
	var names []string
	for _, ev := range events {
		names = append(names, ev.Name)
	}
	joined := strings.Join(names, "|")
	for _, want := range []string{"task 1", "task 2", "memory active"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q span: %v", want, names)
		}
	}
}

func TestPoolTelemetryMissInstant(t *testing.T) {
	tasks := task.Set{{ID: 1, Release: 0, Deadline: 0.1, Workload: 1e8}}
	st := admitAll(t, tasks, testSystem(), 1)
	tel := telemetry.New()
	st.SetTelemetry(tel, "")
	if _, err := st.Run(1, 0, 0, 0.2, 0.5e9); err != nil {
		t.Fatal(err)
	}
	res, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Misses) != 1 {
		t.Fatalf("misses = %v, want 1", res.Misses)
	}
	found := false
	for _, ev := range tel.Events() {
		if ev.Name == "deadline miss" && ev.Phase == 'i' {
			found = true
		}
	}
	if !found {
		t.Error("no deadline-miss instant in trace")
	}
}
