package encode

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sdem/internal/commonrelease"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
)

func sampleTasks() task.Set {
	return task.Set{
		{ID: 1, Release: 0, Deadline: 0.06, Workload: 3e6, Name: "a"},
		{ID: 2, Release: 0, Deadline: 0.09, Workload: 4e6, Name: "b"},
	}
}

func TestTasksRoundTrip(t *testing.T) {
	ts := sampleTasks()
	data, err := MarshalTasks(ts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalTasks(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ts) {
		t.Fatalf("len %d != %d", len(got), len(ts))
	}
	for i := range ts {
		if got[i] != ts[i] {
			t.Errorf("task %d: %+v != %+v", i, got[i], ts[i])
		}
	}
}

// TestSystemRoundTrip pins that the platform model a run document
// carries decodes to the identical system.
func TestSystemRoundTrip(t *testing.T) {
	sys := power.DefaultSystem()
	sol, err := commonrelease.Solve(sampleTasks(), sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalRun(Run{Tasks: sampleTasks(), System: sys, Schedule: sol.Schedule, Breakdown: schedule.Audit(sol.Schedule, sys)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalRun(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.System != sys {
		t.Errorf("system round trip: %+v != %+v", got.System, sys)
	}
}

func TestScheduleAndRunRoundTrip(t *testing.T) {
	sys := power.DefaultSystem()
	ts := sampleTasks()
	sol, err := commonrelease.Solve(ts, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := Run{Tasks: ts, System: sys, Schedule: sol.Schedule, Breakdown: schedule.Audit(sol.Schedule, sys)}
	rdata, err := MarshalRun(run)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalRun(rdata)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Schedule.Validate(ts, schedule.ValidateOptions{SpeedMax: sys.Core.SpeedMax}); err != nil {
		t.Fatalf("decoded schedule invalid: %v", err)
	}
	if a, b := schedule.Audit(back.Schedule, sys).Total(), sol.Energy; a != b {
		t.Errorf("decoded audit %g != original %g", a, b)
	}
	if back.Breakdown.Total() != run.Breakdown.Total() {
		t.Error("run breakdown changed in round trip")
	}
}

func TestRunTamperDetection(t *testing.T) {
	sys := power.DefaultSystem()
	ts := sampleTasks()
	sol, err := commonrelease.Solve(ts, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := Run{Tasks: ts, System: sys, Schedule: sol.Schedule, Breakdown: schedule.Audit(sol.Schedule, sys)}
	data, err := MarshalRun(run)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the stored energy.
	tampered := bytes.Replace(data, []byte(`"CoreDynamic"`), []byte(`"CoreDynamicX"`), 1)
	if _, err := UnmarshalRun(tampered); err == nil {
		t.Error("tampered run should fail the audit cross-check")
	}
}

func TestKindAndVersionGuards(t *testing.T) {
	ts := sampleTasks()
	data, _ := MarshalTasks(ts)
	// Wrong kind.
	if _, err := UnmarshalRun(data); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("kind mismatch should fail, got %v", err)
	}
	// Wrong version.
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc.Version = 99
	bad, _ := json.Marshal(doc)
	if _, err := UnmarshalTasks(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version mismatch should fail, got %v", err)
	}
	// Garbage.
	if _, err := UnmarshalTasks([]byte("{")); err == nil {
		t.Error("garbage should fail")
	}
	// Invalid tasks payload.
	badTasks := task.Set{{ID: 1, Release: 1, Deadline: 0, Workload: 1}}
	raw, _ := json.Marshal(badTasks)
	env, _ := json.Marshal(Document{Version: Version, Kind: KindTasks, Payload: raw})
	if _, err := UnmarshalTasks(env); err == nil {
		t.Error("invalid task set should fail validation")
	}
}

func TestWrite(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "{}\n" {
		t.Errorf("Write output %q", buf.String())
	}
}
