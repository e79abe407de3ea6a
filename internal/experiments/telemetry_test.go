package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"sdem/internal/telemetry"
)

// dumpAll renders a recorder's full deterministic output (metrics plus
// Chrome trace) for byte comparison.
func dumpAll(t *testing.T, tel *telemetry.Recorder) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tel.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tel.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTelemetryWorkerCountInvariant is the worker-independence guarantee
// extended to telemetry: the merged metrics and trace of a 4-worker sweep
// are byte-identical to the Workers == 1 sequential path.
func TestTelemetryWorkerCountInvariant(t *testing.T) {
	run := func(workers int) string {
		tel := telemetry.New()
		c := Config{Seeds: 2, Tasks: 10, Workers: workers, Telemetry: tel}
		if _, err := c.Fig6a(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Ablation(); err != nil {
			t.Fatal(err)
		}
		return dumpAll(t, tel)
	}
	seq := run(1)
	par := run(4)
	if seq != par {
		t.Fatalf("telemetry diverges between workers=1 and workers=4:\n--- seq ---\n%.2000s\n--- par ---\n%.2000s", seq, par)
	}
}

// TestFaultSweepTelemetryWorkerCountInvariant covers the fault sweep's
// separate fan-out path.
func TestFaultSweepTelemetryWorkerCountInvariant(t *testing.T) {
	run := func(workers int) string {
		tel := telemetry.New()
		cfg := FaultConfig{N: 6, Trials: 3, Intensities: []float64{0.25, 0.5}, Workers: workers, Telemetry: tel}
		if _, err := FaultSweep(cfg); err != nil {
			t.Fatal(err)
		}
		return dumpAll(t, tel)
	}
	if seq, par := run(1), run(4); seq != par {
		t.Fatalf("fault-sweep telemetry diverges between workers=1 and workers=4")
	}
}

// TestTelemetryDoesNotPerturbResults: attaching a recorder must not change
// any computed figure — telemetry observes the computation, never steers
// it.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	plain := Config{Seeds: 2, Tasks: 10, Workers: 2}
	instr := plain
	instr.Telemetry = telemetry.New()
	a, err := plain.Fig6b()
	if err != nil {
		t.Fatal(err)
	}
	b, err := instr.Fig6b()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("telemetry perturbed the sweep results:\n%+v\n%+v", a, b)
	}
}

// TestTelemetryCoversAllLayers asserts the acceptance criterion: one
// instrumented campaign emits metrics from the solver, simulator,
// resilient and sweep layers.
func TestTelemetryCoversAllLayers(t *testing.T) {
	tel := telemetry.New()
	c := Config{Seeds: 1, Tasks: 8, Workers: 2, Telemetry: tel}
	if _, err := c.Fig6a(); err != nil {
		t.Fatal(err)
	}
	if _, err := FaultSweep(FaultConfig{N: 6, Trials: 2, Intensities: []float64{0.5}, Workers: 2, Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tel.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, prefix := range []string{
		"sdem.solver.cr.solves",
		"sdem.solver.online.plans",
		"sdem.sim.segments",
		"sdem.sim.energy_j",
		"sdem.resilient.detections",
		"sdem.sweep.points",
		"sdem.sweep.saving",
	} {
		if !strings.Contains(out, prefix) {
			t.Errorf("metrics dump missing %q", prefix)
		}
	}
	// The wall-clock profile lives outside the metrics dump but must have
	// tracked the sweep families.
	fams := tel.Prof.Families()
	names := make(map[string]bool, len(fams))
	for _, f := range fams {
		names[f.Name] = true
	}
	for _, want := range []string{"fig6a", "faultsweep"} {
		if !names[want] {
			t.Errorf("profiler missing family %q (have %v)", want, names)
		}
	}
}
