// Telemetry instrumentation of a recorded run: per-component energy
// attribution, sleep/wake accounting, and trace emission of the as-run
// schedule on virtual time.
package sim

import (
	"strconv"

	"sdem/internal/schedule"
	"sdem/internal/telemetry"
)

// EnergyBreakdown is the public per-component energy attribution of a
// run: the four ledgers the paper's trade-off argument is made of.
// Components always sum to the audited total (asserted in tests within
// numeric tolerance).
type EnergyBreakdown struct {
	// Dynamic is the speed-dependent core execution energy (Σ β·s^λ·t).
	Dynamic float64 `json:"dynamic_j"`
	// CoreStatic is core leakage over execution and unslept idle.
	CoreStatic float64 `json:"core_static_j"`
	// MemoryStatic is memory leakage over busy and unslept idle time.
	MemoryStatic float64 `json:"memory_static_j"`
	// Transition aggregates all mode-change overheads: core and memory
	// sleep transitions plus DVS switch energy.
	Transition float64 `json:"transition_j"`
}

// Total returns the sum of the components.
func (e EnergyBreakdown) Total() float64 {
	return e.Dynamic + e.CoreStatic + e.MemoryStatic + e.Transition
}

// ComponentBreakdown folds the audit's itemized ledger into the
// four-way public attribution.
func ComponentBreakdown(b schedule.Breakdown) EnergyBreakdown {
	return EnergyBreakdown{
		Dynamic:      b.CoreDynamic,
		CoreStatic:   b.CoreStatic,
		MemoryStatic: b.MemoryStatic,
		Transition:   b.CoreTransition + b.MemoryTransition + b.CoreSwitch,
	}
}

// EnergyBreakdown returns the run's per-component energy attribution
// under the schedule's audited sleep policies.
func (r *Result) EnergyBreakdown() EnergyBreakdown {
	return ComponentBreakdown(r.Breakdown)
}

// label joins the stream's scheduler label with an extra "k=v" pair,
// keeping keys in alphabetical order (component < sched).
func (s *Stream) label(extra string) string {
	if s.telLabel == "" {
		return extra
	}
	if extra == "" {
		return s.telLabel
	}
	return extra + "," + s.telLabel
}

// recordFinish charges the audited run into the recorder and emits the
// as-run schedule as a trace. Called from Finish only when telemetry is
// attached, so the disabled path pays nothing beyond one nil check.
func (s *Stream) recordFinish(b schedule.Breakdown, misses []int, m Metrics) {
	tel, l := s.tel, s.telLabel

	// Per-component energy attribution (satellite of the audit ledger).
	e := ComponentBreakdown(b)
	tel.AddL("sdem.sim.energy_j", s.label("component=dynamic"), e.Dynamic)
	tel.AddL("sdem.sim.energy_j", s.label("component=core_static"), e.CoreStatic)
	tel.AddL("sdem.sim.energy_j", s.label("component=memory_static"), e.MemoryStatic)
	tel.AddL("sdem.sim.energy_j", s.label("component=transition"), e.Transition)

	// Sleep/wake and switching event counts, straight from the audit.
	tel.CountL("sdem.sim.core_sleeps", l, int64(b.CoreSleeps))
	tel.CountL("sdem.sim.memory_sleeps", l, int64(b.MemorySleeps))
	tel.CountL("sdem.sim.speed_switches", l, int64(b.SpeedSwitches))
	tel.AddL("sdem.sim.memory_sleep_s", l, b.MemorySleep)
	tel.CountL("sdem.sim.misses", l, int64(len(misses)))
	tel.CountL("sdem.sim.runs", l, 1)
	if m.Completed > 0 {
		tel.ObserveL("sdem.sim.response_s", l, m.MeanResponse)
	}

	s.emitTrace(misses)
}

// emitTrace renders the normalized schedule as trace spans on virtual
// time. Lane convention: tid 0 is the memory, tid k+1 is core k. Idle
// gaps come from the auditor's gap walkers and are classified exactly as
// the audit charges them (sleep vs. idle-active) via the schedule's
// policies.
func (s *Stream) emitTrace(misses []int) {
	sc := s.sched
	var a schedule.Auditor
	for c, segs := range sc.Cores {
		tid := c + 1
		for _, sg := range segs {
			s.tel.Span("task "+strconv.Itoa(sg.TaskID), "sim", sg.Start, sg.End, tid,
				telemetry.Int("task", int64(sg.TaskID)),
				telemetry.Num("speed", sg.Speed))
		}
		if len(segs) == 0 {
			continue
		}
		a.CoreGaps(sc, segs, func(g schedule.Interval) {
			name := "core idle"
			if sc.CorePolicy.Sleeps(g.Len(), s.sys.Core.Static, s.sys.Core.BreakEven) {
				name = "core sleep"
			}
			s.tel.Span(name, "sim", g.Start, g.End, tid)
		})
	}
	for _, iv := range sc.MemoryBusy() {
		s.tel.Span("memory active", "sim", iv.Start, iv.End, 0)
	}
	a.MemoryGaps(sc, func(g schedule.Interval) {
		name := "memory idle"
		if sc.MemoryPolicy.Sleeps(g.Len(), s.sys.Memory.Static, s.sys.Memory.BreakEven) {
			name = "memory sleep"
		}
		s.tel.Span(name, "sim", g.Start, g.End, 0)
	})
	for _, id := range misses {
		j := s.jobs[id]
		tid := 0
		if j.Core >= 0 {
			tid = j.Core + 1
		}
		s.tel.Instant("deadline miss", "sim", missTime(j), tid, telemetry.Int("task", int64(id)))
	}
}

// missTime picks the trace timestamp of a miss: the late completion, or
// the deadline for jobs that never finished.
func missTime(j *Job) float64 {
	if j.Done {
		return j.Completed
	}
	return j.Task.Deadline
}
