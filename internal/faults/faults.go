// Package faults defines a deterministic, composable fault model for SDEM
// schedules: the ways a real platform deviates from the plan every solver
// in this module assumes executes exactly.
//
// The paper's schedules are maximally fragile by construction —
// procrastination stretches memory sleep right up to each task's latest
// execution point d_j − p_j, leaving zero slack for the model being wrong.
// This package expresses the deviations as typed Fault values with an
// explicit injection schedule, so a run is fully described by (inputs,
// fault plan) and replayable bit-for-bit. Plans are either written by hand
// or drawn by Generate from a seed and an intensity knob.
//
// The faults:
//
//   - Overrun: a task's real workload exceeds (or undercuts) its declared
//     WCET by Factor.
//   - WakeLatency: one memory sleep→active transition takes Delay seconds
//     longer than the ξ_m break-even model assumed, pushing every segment
//     planned at that wake point.
//   - SpeedCap: thermal throttling clamps one core to Factor·s_up during
//     [At, Until]; the core silently delivers fewer cycles than commanded.
//   - SpuriousWake: the memory wakes for Delay seconds at time At during a
//     planned sleep, wasting α_m·Delay plus one transition — pure energy
//     loss, no timing effect.
//   - LateRelease: a task arrives Delay seconds after its declared release
//     (its deadline does not move).
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sdem/internal/power"
	"sdem/internal/task"
)

// minSpan floors the task-set time span that scales Generate's
// time-indexed draws, so degenerate single-instant sets still yield a
// valid plan; it matches schedule.Tol (1e-9) by value.
const minSpan = 1e-9

// Kind classifies a fault.
type Kind int

const (
	// Overrun scales a task's real workload by Factor (WCET misestimation).
	Overrun Kind = iota
	// WakeLatency delays the first memory wake at or after At by Delay.
	WakeLatency
	// SpeedCap clamps Core to Factor·s_up during [At, Until].
	SpeedCap
	// SpuriousWake wakes the memory for Delay seconds at At.
	SpuriousWake
	// LateRelease postpones TaskID's release by Delay.
	LateRelease
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Overrun:
		return "overrun"
	case WakeLatency:
		return "wake-latency"
	case SpeedCap:
		return "speed-cap"
	case SpuriousWake:
		return "spurious-wake"
	case LateRelease:
		return "late-release"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one injected deviation from the plan. Fields not used by the
// kind are zero (TaskID and Core use −1 for "not applicable").
type Fault struct {
	Kind Kind `json:"kind"`
	// TaskID targets a task (Overrun, LateRelease); −1 otherwise.
	TaskID int `json:"task_id"`
	// Core targets a core (SpeedCap); −1 otherwise.
	Core int `json:"core"`
	// Factor is the workload multiplier (Overrun, > 0) or the fraction of
	// s_up the throttled core can still reach (SpeedCap, in (0, 1]).
	Factor float64 `json:"factor,omitempty"`
	// Delay is the extra latency in seconds (WakeLatency, LateRelease) or
	// the spurious active duration (SpuriousWake).
	Delay float64 `json:"delay,omitempty"`
	// At anchors time-located faults: the earliest wake it applies to
	// (WakeLatency), the wake instant (SpuriousWake), or the interval
	// start (SpeedCap).
	At float64 `json:"at,omitempty"`
	// Until ends a SpeedCap interval.
	Until float64 `json:"until,omitempty"`
}

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f.Kind {
	case Overrun:
		return fmt.Sprintf("overrun: task %d workload ×%.3g", f.TaskID, f.Factor)
	case WakeLatency:
		return fmt.Sprintf("wake-latency: +%.3gs at first wake ≥ %.3gs", f.Delay, f.At)
	case SpeedCap:
		return fmt.Sprintf("speed-cap: core %d at %.3g·s_up in [%.3g, %.3g]s", f.Core, f.Factor, f.At, f.Until)
	case SpuriousWake:
		return fmt.Sprintf("spurious-wake: %.3gs at %.3gs", f.Delay, f.At)
	case LateRelease:
		return fmt.Sprintf("late-release: task %d +%.3gs", f.TaskID, f.Delay)
	default:
		return fmt.Sprintf("%v", f.Kind)
	}
}

// Validate reports whether the fault is well-formed.
func (f Fault) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("faults: %v: "+format, append([]any{f.Kind}, args...)...)
	}
	for _, v := range []float64{f.Factor, f.Delay, f.At, f.Until} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return bad("non-finite field")
		}
	}
	switch f.Kind {
	case Overrun:
		if f.Factor <= 0 {
			return bad("factor %g must be positive", f.Factor)
		}
	case WakeLatency, SpuriousWake:
		if f.Delay < 0 {
			return bad("delay %g must be non-negative", f.Delay)
		}
	case SpeedCap:
		if f.Factor <= 0 || f.Factor > 1 {
			return bad("factor %g must be in (0, 1]", f.Factor)
		}
		if f.Until < f.At {
			return bad("interval [%g, %g] inverted", f.At, f.Until)
		}
		if f.Core < 0 {
			return bad("core must be set")
		}
	case LateRelease:
		if f.Delay < 0 {
			return bad("delay %g must be non-negative", f.Delay)
		}
	default:
		return fmt.Errorf("faults: unknown kind %d", int(f.Kind))
	}
	return nil
}

// Plan is a replayable set of faults: everything a perturbed run needs
// beyond its ordinary inputs. The zero value is the empty (fault-free)
// plan.
type Plan struct {
	// Seed records the generator seed (0 for hand-written plans); it is
	// carried for provenance only — the Faults list alone determines the
	// perturbation.
	Seed int64 `json:"seed"`
	// Faults is the injection schedule.
	Faults []Fault `json:"faults"`
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Faults) == 0 }

// Validate checks every fault.
func (p Plan) Validate() error {
	for i, f := range p.Faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// ByKind returns the faults of one kind, in plan order.
func (p Plan) ByKind(k Kind) []Fault {
	var out []Fault
	for _, f := range p.Faults {
		if f.Kind == k {
			out = append(out, f)
		}
	}
	return out
}

// JobFault folds the plan's task-level faults on one task into the
// perturbation JobFault.Apply performs: the product of its Overrun
// factors and the sum of its LateRelease delays (no perturbation when
// none targets it).
func (p Plan) JobFault(id int) JobFault {
	f := JobFault{WorkFactor: 1}
	for _, x := range p.Faults {
		if x.TaskID != id {
			continue
		}
		switch x.Kind {
		case Overrun:
			f.WorkFactor *= x.Factor
		case LateRelease:
			f.ReleaseDelay += x.Delay
		}
	}
	return f
}

// Config tunes Generate. Intensity is the single headline knob in [0, 1]:
// it scales both how many faults are drawn and how severe each one is.
// The per-kind ceilings below apply at intensity 1; zero values take the
// defaults. Kinds restricts generation to a subset (nil = all kinds).
type Config struct {
	// Intensity in [0, 1] scales fault probability and magnitude.
	Intensity float64
	// Kinds restricts the generated fault kinds (nil = all).
	Kinds []Kind
	// OverrunMax is the workload factor ceiling at intensity 1
	// (default 1.5; each overrun draws a factor in (1, 1+(OverrunMax−1)·I]).
	OverrunMax float64
	// OverrunProb is the per-task overrun probability at intensity 1
	// (default 0.5).
	OverrunProb float64
	// WakeDelayMax is the extra wake latency ceiling at intensity 1 as a
	// multiple of ξ_m (default 2).
	WakeDelayMax float64
	// CapFloor is the deepest throttle at intensity 1: caps draw factors
	// in [1−(1−CapFloor)·I, 1] (default 0.5, i.e. down to half s_up).
	CapFloor float64
	// LateReleaseMax is the release delay ceiling at intensity 1 as a
	// fraction of the task's window (default 0.3).
	LateReleaseMax float64
}

func (c Config) withDefaults() Config {
	if c.OverrunMax <= 0 {
		c.OverrunMax = 1.5
	}
	if c.OverrunProb <= 0 {
		c.OverrunProb = 0.5
	}
	if c.WakeDelayMax <= 0 {
		c.WakeDelayMax = 2
	}
	if c.CapFloor <= 0 {
		c.CapFloor = 0.5
	}
	if c.LateReleaseMax <= 0 {
		c.LateReleaseMax = 0.3
	}
	return c
}

func (c Config) wants(k Kind) bool {
	if len(c.Kinds) == 0 {
		return true
	}
	for _, want := range c.Kinds {
		if want == k {
			return true
		}
	}
	return false
}

// Generate draws a fault plan for the task set on the platform,
// deterministic in the seed. Intensity 0 yields the empty plan; higher
// intensities draw more and harsher faults, bounded by the Config
// ceilings. The same (cfg, tasks, sys, seed) triple always yields the
// same plan — the replayability guarantee the resilient runtime builds on.
func Generate(cfg Config, tasks task.Set, sys power.System, seed int64) Plan {
	cfg = cfg.withDefaults()
	in := cfg.Intensity
	if in <= 0 || len(tasks) == 0 {
		return Plan{Seed: seed}
	}
	if in > 1 {
		in = 1
	}
	r := rand.New(rand.NewSource(seed)) //lint:allow randsource: seeded generator; callers pass a stats.DeriveSeed-derived seed
	plan := Plan{Seed: seed}
	start, end := tasks.Span()
	span := math.Max(end-start, minSpan)
	cores := sys.Cores
	if cores <= 0 {
		cores = len(tasks)
	}

	// Per-task faults, in deterministic (sorted-by-ID) order.
	ids := make([]int, 0, len(tasks))
	byID := make(map[int]task.Task, len(tasks))
	for _, t := range tasks {
		ids = append(ids, t.ID)
		byID[t.ID] = t
	}
	sort.Ints(ids)
	for _, id := range ids {
		t := byID[id]
		if cfg.wants(Overrun) && r.Float64() < cfg.OverrunProb*in {
			plan.Faults = append(plan.Faults, Fault{
				Kind:   Overrun,
				TaskID: id,
				Core:   -1,
				Factor: 1 + (cfg.OverrunMax-1)*in*r.Float64(),
			})
		}
		if cfg.wants(LateRelease) && r.Float64() < 0.2*in {
			plan.Faults = append(plan.Faults, Fault{
				Kind:   LateRelease,
				TaskID: id,
				Core:   -1,
				Delay:  cfg.LateReleaseMax * in * r.Float64() * t.Window(),
			})
		}
	}

	// Platform faults over the span.
	if cfg.wants(WakeLatency) {
		for n := int(math.Round(3 * in)); n > 0; n-- {
			plan.Faults = append(plan.Faults, Fault{
				Kind:   WakeLatency,
				TaskID: -1,
				Core:   -1,
				At:     start + r.Float64()*span,
				Delay:  cfg.WakeDelayMax * in * r.Float64() * sys.Memory.BreakEven,
			})
		}
	}
	if cfg.wants(SpeedCap) && sys.Core.SpeedMax > 0 {
		for n := int(math.Round(float64(cores) / 2 * in)); n > 0; n-- {
			at := start + r.Float64()*span
			plan.Faults = append(plan.Faults, Fault{
				Kind:   SpeedCap,
				TaskID: -1,
				Core:   r.Intn(cores),
				Factor: 1 - (1-cfg.CapFloor)*in*r.Float64(),
				At:     at,
				Until:  at + r.Float64()*span/4,
			})
		}
	}
	if cfg.wants(SpuriousWake) {
		for n := int(math.Round(2 * in)); n > 0; n-- {
			plan.Faults = append(plan.Faults, Fault{
				Kind:   SpuriousWake,
				TaskID: -1,
				Core:   -1,
				At:     start + r.Float64()*span,
				Delay:  r.Float64() * in * math.Max(sys.Memory.BreakEven, span/100),
			})
		}
	}
	return plan
}
