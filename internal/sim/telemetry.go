// Telemetry instrumentation of a recorded run: per-component energy
// attribution, sleep/wake accounting, and the as-run schedule as a trace
// on virtual time, rendered only when the trace is read.
package sim

import (
	"strconv"

	"sdem/internal/power"
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

// recordFinish charges the audited run into the recorder and registers
// the as-run schedule as a deferred trace source. Called from Result only
// when telemetry is attached, so the disabled path pays nothing beyond
// one nil check.
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

	traceRun(s, misses)
}

// traceRun hands a finished run's as-run trace to its recorder as a
// deferred source, rendered only when the trace is read. It is a variable
// so the package's tests can substitute the eager oracle and compare the
// two traces byte for byte.
var traceRun = func(s *Stream, misses []int) { s.tel.Defer(s.asRun(misses).emit) }

// asRunTrace is the as-run schedule of a recorded run, kept for rendering
// as a trace when the trace is read. It owns copies of the segment lists
// and of the miss instants: the caller of Result may change the returned
// schedule afterwards (resilient coalesces its checkpoint slices), and
// the trace shows the run as Result audited it.
type asRunTrace struct {
	sched  schedule.Schedule
	sys    power.System
	misses []missMark
}

// missMark is one deadline-miss instant: the task, its lane and the time
// missTime picks.
type missMark struct {
	id, tid int
	ts      float64
}

// asRun copies the normalized schedule and the misses' instants into a
// trace source, with one backing array for all segment lists.
func (s *Stream) asRun(misses []int) *asRunTrace {
	sc := s.sched
	n := 0
	for _, segs := range sc.Cores {
		n += len(segs)
	}
	flat := make([]schedule.Segment, 0, n)
	cores := make([][]schedule.Segment, len(sc.Cores))
	for c, segs := range sc.Cores {
		lo := len(flat)
		flat = append(flat, segs...)
		cores[c] = flat[lo:len(flat):len(flat)]
	}
	t := &asRunTrace{sched: *sc, sys: s.sys, misses: make([]missMark, len(misses))}
	t.sched.Cores = cores
	for i, id := range misses {
		j := s.jobs[id]
		tid := 0
		if j.Core >= 0 {
			tid = j.Core + 1
		}
		t.misses[i] = missMark{id: id, tid: tid, ts: missTime(j)}
	}
	return t
}

// emit renders the schedule as trace spans on virtual time. Lane
// convention: tid 0 is the memory, tid k+1 is core k. Idle gaps come from
// the auditor's gap walkers and are labeled sleep or idle by the
// schedule's policies exactly as the audit charges them.
func (t *asRunTrace) emit(tel *telemetry.Recorder) {
	sc := &t.sched
	var a schedule.Auditor
	for c, segs := range sc.Cores {
		tid := c + 1
		for _, sg := range segs {
			tel.Span("task "+strconv.Itoa(sg.TaskID), "sim", sg.Start, sg.End, tid,
				telemetry.Int("task", int64(sg.TaskID)),
				telemetry.Num("speed", sg.Speed))
		}
		if len(segs) == 0 {
			continue
		}
		a.CoreGaps(sc, segs, func(g schedule.Interval) {
			name := "core idle"
			if sc.CorePolicy.Decide(g.Len(), t.sys.Core.Static, t.sys.Core.BreakEven).Sleeps {
				name = "core sleep"
			}
			tel.Span(name, "sim", g.Start, g.End, tid)
		})
	}
	for _, iv := range sc.MemoryBusy() {
		tel.Span("memory active", "sim", iv.Start, iv.End, 0)
	}
	a.MemoryGaps(sc, func(g schedule.Interval) {
		name := "memory idle"
		if sc.MemoryPolicy.Decide(g.Len(), t.sys.Memory.Static, t.sys.Memory.BreakEven).Sleeps {
			name = "memory sleep"
		}
		tel.Span(name, "sim", g.Start, g.End, 0)
	})
	for _, m := range t.misses {
		tel.Instant("deadline miss", "sim", m.ts, m.tid, telemetry.Int("task", int64(m.id)))
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
