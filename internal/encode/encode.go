// Package encode provides stable JSON interchange for the library's data
// types — task sets, whole runs (tasks, system, schedule and breakdown)
// and fault sweeps — so the CLI tools can pipe workloads and results
// between each other and external tooling (plotting, trace viewers) can
// consume them.
package encode

import (
	"encoding/json"
	"fmt"
	"io"

	"sdem/internal/numeric"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
)

// auditTol is the relative disagreement allowed between a stored energy
// breakdown and a fresh audit of the decoded schedule; it matches
// schedule.Tol (1e-9) by value.
const auditTol = 1e-9

// Version is embedded in every document to keep future format changes
// detectable.
const Version = 1

// Document is the envelope for any encoded payload.
type Document struct {
	Version int             `json:"version"`
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// Kinds of payloads.
const (
	KindTasks      = "tasks"
	KindRun        = "run"
	KindFaultSweep = "fault-sweep"
)

// FaultSweepRow is one intensity point of a fault-injection sweep:
// aggregate miss and recovery statistics over the trial fault seeds.
type FaultSweepRow struct {
	// Intensity is the fault generator's headline knob.
	Intensity float64 `json:"intensity"`
	// Trials is the number of fault seeds at this point.
	Trials int `json:"trials"`
	// Faults is the total number of injected faults across trials.
	Faults int `json:"faults"`
	// BareMisses counts fault-induced misses of the no-recovery replay.
	BareMisses int `json:"bare_misses"`
	// RecoveredMisses counts fault-induced misses left by the full
	// recovery chain.
	RecoveredMisses int `json:"recovered_misses"`
	// Averted counts fault-threatened deadlines the chain met.
	Averted int `json:"averted"`
	// Boosts, Replans and Races count the recovery actions taken.
	Boosts  int `json:"boosts"`
	Replans int `json:"replans"`
	Races   int `json:"races"`
	// EnergyOverhead is the mean relative energy of the faulty recovered
	// run against the fault-free schedule, (E − E_clean)/E_clean,
	// averaged over trials. It includes both the recovery actions and
	// the fault energy itself (wake stalls, spurious wakes).
	EnergyOverhead float64 `json:"energy_overhead"`
}

// FaultSweep is the interchange payload of a cmd/faultsim campaign.
type FaultSweep struct {
	// Workload names the generated task set (e.g. "fft").
	Workload string `json:"workload"`
	// N is the number of task instances.
	N int `json:"n"`
	// Seed is the workload seed.
	Seed int64 `json:"seed"`
	// CleanEnergy is the audited energy of the fault-free schedule.
	CleanEnergy float64 `json:"clean_energy"`
	// Rows are the intensity points in sweep order.
	Rows []FaultSweepRow `json:"rows"`
}

// Run bundles a scheduling result for interchange: the inputs, the
// schedule and its audited breakdown.
type Run struct {
	Tasks     task.Set           `json:"tasks"`
	System    power.System       `json:"system"`
	Schedule  *schedule.Schedule `json:"schedule"`
	Breakdown schedule.Breakdown `json:"breakdown"`
}

func wrap(kind string, payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("encode: marshal %s: %w", kind, err)
	}
	return json.MarshalIndent(Document{Version: Version, Kind: kind, Payload: raw}, "", "  ")
}

func unwrap(data []byte, kind string, payload any) error {
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("encode: bad document: %w", err)
	}
	if doc.Version != Version {
		return fmt.Errorf("encode: unsupported version %d (want %d)", doc.Version, Version)
	}
	if doc.Kind != kind {
		return fmt.Errorf("encode: document kind %q, want %q", doc.Kind, kind)
	}
	if err := json.Unmarshal(doc.Payload, payload); err != nil {
		return fmt.Errorf("encode: bad %s payload: %w", kind, err)
	}
	return nil
}

// MarshalTasks encodes a task set.
func MarshalTasks(ts task.Set) ([]byte, error) { return wrap(KindTasks, ts) }

// UnmarshalTasks decodes and validates a task set.
func UnmarshalTasks(data []byte) (task.Set, error) {
	var ts task.Set
	if err := unwrap(data, KindTasks, &ts); err != nil {
		return nil, err
	}
	if err := ts.Validate(); err != nil {
		return nil, fmt.Errorf("encode: invalid tasks: %w", err)
	}
	return ts, nil
}

// MarshalRun encodes a full scheduling result.
func MarshalRun(r Run) ([]byte, error) { return wrap(KindRun, r) }

// UnmarshalRun decodes a full scheduling result and cross-checks that
// the embedded breakdown matches a fresh audit of the schedule — a
// tamper/skew detector for persisted results.
func UnmarshalRun(data []byte) (Run, error) {
	var r Run
	if err := unwrap(data, KindRun, &r); err != nil {
		return Run{}, err
	}
	if r.Schedule == nil {
		return Run{}, fmt.Errorf("encode: run without schedule")
	}
	r.Schedule.Normalize()
	fresh := schedule.Audit(r.Schedule, r.System)
	if !numeric.AlmostEqual(fresh.Total(), r.Breakdown.Total(), auditTol) {
		return Run{}, fmt.Errorf("encode: stored breakdown (%g J) disagrees with audit (%g J)",
			r.Breakdown.Total(), fresh.Total())
	}
	return r, nil
}

// MarshalFaultSweep encodes a fault-injection sweep result.
func MarshalFaultSweep(s FaultSweep) ([]byte, error) { return wrap(KindFaultSweep, s) }

// UnmarshalFaultSweep decodes a fault-injection sweep result.
func UnmarshalFaultSweep(data []byte) (FaultSweep, error) {
	var s FaultSweep
	if err := unwrap(data, KindFaultSweep, &s); err != nil {
		return FaultSweep{}, err
	}
	return s, nil
}

// Write writes an encoded document to w with a trailing newline.
func Write(w io.Writer, data []byte) error {
	if _, err := w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("encode: write: %w", err)
	}
	return nil
}
