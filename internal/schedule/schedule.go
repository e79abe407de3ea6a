// Package schedule defines the schedule intermediate representation shared
// by every SDEM algorithm, plus validation and an independent energy audit.
//
// Algorithms construct a Schedule (per-core execution segments with
// speeds); tests and experiments never trust an algorithm's own energy
// arithmetic but re-derive it with Audit, so the algorithms and the
// accounting cross-check each other.
package schedule

import (
	"fmt"
	"math"
	"sort"

	"sdem/internal/numeric"
	"sdem/internal/power"
	"sdem/internal/task"
)

// Tol is the absolute time/cycle tolerance used by validation and interval
// merging.
const Tol = 1e-9

// Interval is a half-open-ish time interval [Start, End]; zero-length
// intervals are permitted but usually merged away.
type Interval struct {
	Start, End float64
}

// Len returns the interval length (never negative).
func (iv Interval) Len() float64 { return math.Max(0, iv.End-iv.Start) }

// Segment is a contiguous execution of one task on one core at constant
// speed.
type Segment struct {
	TaskID int
	Start  float64
	End    float64
	// Speed in Hz; the segment delivers Speed·(End−Start) cycles.
	Speed float64
}

// Cycles returns the work delivered by the segment.
func (sg Segment) Cycles() float64 { return sg.Speed * (sg.End - sg.Start) }

// SleepPolicy states how a component (core or memory) treats idle gaps.
// It determines static and transition energy in the audit.
type SleepPolicy int

const (
	// SleepNever keeps the component idle-active through every gap,
	// paying static power for the whole gap (the MBKP baseline).
	SleepNever SleepPolicy = iota
	// SleepAlways transitions to sleep in every gap regardless of length,
	// paying one full transition overhead per gap (the naive MBKPS
	// baseline). With zero break-even time this equals free sleeping.
	SleepAlways
	// SleepBreakEven sleeps exactly in the gaps at least as long as the
	// break-even time (gap-wise optimal; what the SDEM schemes assume).
	SleepBreakEven
)

// String implements fmt.Stringer.
func (p SleepPolicy) String() string {
	switch p {
	case SleepNever:
		return "never"
	case SleepAlways:
		return "always"
	case SleepBreakEven:
		return "break-even"
	default:
		return fmt.Sprintf("SleepPolicy(%d)", int(p))
	}
}

// Schedule is a complete multi-core schedule over the accounting horizon
// [Start, End].
type Schedule struct {
	// NumCores is the number of physical cores charged by the audit;
	// cores without segments are idle throughout.
	NumCores int
	// Start and End delimit the accounting horizon. The paper uses
	// [common release, latest deadline] for the offline problems.
	Start, End float64
	// Cores holds the per-core segment lists, indexed by core.
	Cores [][]Segment
	// CorePolicy and MemoryPolicy select idle-gap behaviour for the
	// audit.
	CorePolicy   SleepPolicy
	MemoryPolicy SleepPolicy
}

// New returns an empty schedule for numCores cores over [start, end] with
// break-even sleeping (the model the optimal schemes assume).
//
//lint:allow auditcheck: constructor returns an empty schedule with nothing to normalize yet
func New(numCores int, start, end float64) *Schedule {
	return &Schedule{
		NumCores:     numCores,
		Start:        start,
		End:          end,
		Cores:        make([][]Segment, numCores),
		CorePolicy:   SleepBreakEven,
		MemoryPolicy: SleepBreakEven,
	}
}

// Add appends a segment to the given core, growing the core list if needed.
func (s *Schedule) Add(core int, sg Segment) {
	for core >= len(s.Cores) {
		s.Cores = append(s.Cores, nil)
	}
	if len(s.Cores) > s.NumCores {
		s.NumCores = len(s.Cores)
	}
	s.Cores[core] = append(s.Cores[core], sg)
}

// segmentsByStart sorts segments by start time. Sorting goes through a
// pointer receiver so the sort.Interface conversion stays allocation-free
// on the audit hot path (a slice header boxed by value would escape).
type segmentsByStart []Segment

func (x *segmentsByStart) Len() int           { return len(*x) }
func (x *segmentsByStart) Swap(i, j int)      { (*x)[i], (*x)[j] = (*x)[j], (*x)[i] }
func (x *segmentsByStart) Less(i, j int) bool { return (*x)[i].Start < (*x)[j].Start }

// segmentsSorted reports whether the segments are already ordered by start
// time — the common case when algorithms append in time order, letting
// Normalize skip the sort (and its allocations) entirely.
func segmentsSorted(segs []Segment) bool {
	for i := 1; i < len(segs); i++ {
		if segs[i].Start < segs[i-1].Start {
			return false
		}
	}
	return true
}

// Normalize sorts every core's segments by start time and drops empty
// segments. It must be called (or segments added in order) before
// validation or audit.
//
//sdem:hotpath
func (s *Schedule) Normalize() {
	for c := range s.Cores {
		segs := s.Cores[c][:0]
		for _, sg := range s.Cores[c] {
			if sg.End-sg.Start > Tol/10 {
				//lint:allow hotalloc: filters in place into s.Cores[c][:0]; len never exceeds the existing cap
				segs = append(segs, sg)
			}
		}
		s.Cores[c] = segs
		if !segmentsSorted(segs) {
			sort.Sort((*segmentsByStart)(&s.Cores[c]))
		}
	}
}

// Coalesce merges abutting equal-speed segments of the same task on each
// core. The resilient replay executes plans in checkpointed slices; after
// a fault-free replay coalescing restores the exact planned segment list,
// and after a faulty one it keeps the output compact. The schedule must be
// normalized (sorted) first.
func (s *Schedule) Coalesce() {
	for c := range s.Cores {
		segs := s.Cores[c]
		if len(segs) < 2 {
			continue
		}
		out := segs[:1]
		for _, sg := range segs[1:] {
			last := &out[len(out)-1]
			if sg.TaskID == last.TaskID &&
				sg.Start <= last.End+Tol &&
				!speedSwitch(last.Speed, sg.Speed) {
				if sg.End > last.End {
					last.End = sg.End
				}
				continue
			}
			out = append(out, sg)
		}
		s.Cores[c] = out
	}
}

// ValidateOptions tunes schedule validation.
type ValidateOptions struct {
	// NonPreemptive additionally requires each task to occupy a single
	// contiguous constant-speed run on one core (§3's offline model).
	NonPreemptive bool
	// SpeedMax caps segment speeds; zero means uncapped.
	SpeedMax float64
}

// Validate checks structural sanity and real-time feasibility: segments
// sorted and non-overlapping per core, within the horizon; every task
// executes within [release, deadline] and receives its full workload; no
// task runs on two cores at once (and never migrates, matching §3).
func (s *Schedule) Validate(tasks task.Set, opts ValidateOptions) error {
	byID := make(map[int]task.Task, len(tasks))
	for _, t := range tasks {
		byID[t.ID] = t
	}
	delivered := make(map[int]float64, len(tasks))
	taskCores := make(map[int]int)
	taskSegs := make(map[int]int)
	type span struct{ a, b float64 }
	taskSpans := make(map[int][]span)

	for c, segs := range s.Cores {
		var prevEnd = math.Inf(-1)
		for i, sg := range segs {
			if sg.End < sg.Start-Tol {
				return fmt.Errorf("core %d segment %d: end %g before start %g", c, i, sg.End, sg.Start)
			}
			if sg.Start < s.Start-Tol || sg.End > s.End+Tol {
				return fmt.Errorf("core %d segment %d: [%g,%g] outside horizon [%g,%g]", c, i, sg.Start, sg.End, s.Start, s.End)
			}
			if sg.Start < prevEnd-Tol {
				return fmt.Errorf("core %d: segment %d overlaps previous (starts %g before %g)", c, i, sg.Start, prevEnd)
			}
			prevEnd = sg.End
			if sg.Speed < 0 {
				return fmt.Errorf("core %d segment %d: negative speed %g", c, i, sg.Speed)
			}
			if opts.SpeedMax > 0 && sg.Speed > opts.SpeedMax*(1+Tol)+Tol {
				return fmt.Errorf("core %d segment %d: speed %g exceeds cap %g: %w", c, i, sg.Speed, opts.SpeedMax, ErrSpeedCap)
			}
			t, ok := byID[sg.TaskID]
			if !ok {
				return fmt.Errorf("core %d segment %d: unknown task %d", c, i, sg.TaskID)
			}
			if sg.Start < t.Release-Tol {
				return fmt.Errorf("task %d starts at %g before release %g", t.ID, sg.Start, t.Release)
			}
			if sg.End > t.Deadline+Tol {
				return fmt.Errorf("task %d runs until %g past deadline %g: %w", t.ID, sg.End, t.Deadline, ErrDeadlineMiss)
			}
			if prev, seen := taskCores[sg.TaskID]; seen && prev != c {
				return fmt.Errorf("task %d migrates from core %d to core %d", sg.TaskID, prev, c)
			}
			taskCores[sg.TaskID] = c
			taskSegs[sg.TaskID]++
			taskSpans[sg.TaskID] = append(taskSpans[sg.TaskID], span{sg.Start, sg.End})
			delivered[sg.TaskID] += sg.Cycles()
		}
	}

	for _, t := range tasks {
		got := delivered[t.ID]
		// Cycle tolerance scales with workload magnitude.
		tol := Tol * math.Max(1, t.Workload)
		if math.Abs(got-t.Workload) > tol*10 {
			return fmt.Errorf("task %d delivered %g cycles, want %g: %w", t.ID, got, t.Workload, ErrInfeasible)
		}
		if opts.NonPreemptive && taskSegs[t.ID] > 1 {
			// A task may be recorded as several abutting equal-speed
			// segments; require contiguity rather than a literal single
			// segment.
			sp := taskSpans[t.ID]
			sort.Slice(sp, func(i, j int) bool { return sp[i].a < sp[j].a })
			for i := 1; i < len(sp); i++ {
				if sp[i].a > sp[i-1].b+Tol {
					return fmt.Errorf("task %d is preempted (gap at %g)", t.ID, sp[i-1].b)
				}
			}
		}
	}
	return nil
}

// MemoryBusy returns the merged intervals during which at least one core
// executes — the memory's busy intervals.
func (s *Schedule) MemoryBusy() []Interval {
	var a Auditor
	return a.mergedAll(s)
}

// walkGaps calls fn, in time order, for each idle interval of the horizon
// [start, end] not covered by the (merged, sorted) busy intervals,
// including leading and trailing gaps.
func walkGaps(busy []Interval, start, end float64, fn func(Interval)) {
	cur := start
	for _, iv := range busy {
		if iv.Start > cur+Tol {
			fn(Interval{cur, iv.Start})
		}
		if iv.End > cur {
			cur = iv.End
		}
	}
	if end > cur+Tol {
		fn(Interval{cur, end})
	}
}

// CommonIdle returns the total common idle time Δ of the schedule — the
// time within the horizon when no core executes, i.e. the maximum time the
// memory could sleep.
func (s *Schedule) CommonIdle() float64 {
	var a Auditor
	var total float64
	a.MemoryGaps(s, func(g Interval) { total += g.Len() })
	return total
}

// Breakdown itemizes audited energy in joules.
type Breakdown struct {
	CoreDynamic      float64 // Σ β·s^λ over execution
	CoreStatic       float64 // α over execution + unslept idle
	CoreTransition   float64 // α·ξ per core sleep cycle
	CoreSwitch       float64 // DVS switch energy per speed change
	MemoryStatic     float64 // α_m over busy + unslept idle
	MemoryTransition float64 // α_m·ξ_m per memory sleep cycle
	MemorySleep      float64 // seconds the memory actually sleeps
	CoreSleeps       int     // number of core sleep cycles
	MemorySleeps     int     // number of memory sleep cycles
	SpeedSwitches    int     // number of DVS frequency changes
}

// Total returns the audited system-wide energy.
func (b Breakdown) Total() float64 {
	return b.CoreDynamic + b.CoreStatic + b.CoreTransition + b.CoreSwitch +
		b.MemoryStatic + b.MemoryTransition
}

// Sleeps reports whether a gap of length g puts a component with static
// power alpha and break-even time xi to sleep under policy p — the same
// decision the audit's gap charging makes.
func (p SleepPolicy) Sleeps(g, alpha, xi float64) bool {
	_, _, slept, _ := gapCost(g, alpha, xi, p)
	return slept > 0
}

// GapEnergy returns the total energy (static + transition) the audit
// charges for one idle gap of length g under policy p — the closed-form
// solvers use it to price candidate idle tails without building a
// schedule.
func (p SleepPolicy) GapEnergy(g, alpha, xi float64) float64 {
	st, tr, _, _ := gapCost(g, alpha, xi, p)
	return st + tr
}

// Decision is the compact provenance record of one idle gap's
// sleep-or-idle choice: what the audit's gap charging decided, by what
// margin relative to the break-even time, and what the decision saved
// over staying idle-active. It exists so observability layers can
// replay the paper's per-gap break-even comparison without re-deriving
// gapCost's case analysis.
type Decision struct {
	// Sleeps reports whether the component transitions to sleep.
	Sleeps bool
	// Margin is the gap length minus the break-even time xi: positive
	// past break-even, negative for gaps too short to pay the
	// transition back.
	Margin float64
	// NetGain is the energy saved versus staying idle-active for the
	// whole gap (alpha·g minus what the policy actually charges);
	// alpha·(g−xi) for a break-even sleep, 0 when idling was chosen,
	// negative when SleepAlways sleeps at a loss.
	NetGain float64
}

// Decide returns the decision record of one idle gap of length g for a
// component with static power alpha and break-even time xi under p —
// the same case analysis the audit charges by, exposed for decision
// provenance.
func (p SleepPolicy) Decide(g, alpha, xi float64) Decision {
	st, tr, _, sleeps := gapCost(g, alpha, xi, p)
	return Decision{
		Sleeps:  sleeps,
		Margin:  g - xi,
		NetGain: alpha*g - (st + tr),
	}
}

// gapCost charges one idle gap of length g for a component with static
// power alpha and break-even time xi under the given policy. It returns
// static energy, transition energy, slept seconds and whether a sleep
// happened.
func gapCost(g, alpha, xi float64, p SleepPolicy) (static, transition, slept float64, sleeps bool) {
	if g <= Tol {
		return 0, 0, 0, false
	}
	if numeric.IsZero(alpha, 0) {
		// A leak-free component is indifferent; call it asleep for the
		// sleep-time statistics.
		return 0, 0, g, false
	}
	switch p {
	case SleepNever:
		return alpha * g, 0, 0, false
	case SleepAlways:
		return 0, alpha * xi, g, true
	case SleepBreakEven:
		if g >= xi {
			return 0, alpha * xi, g, true
		}
		return alpha * g, 0, 0, false
	default:
		return alpha * g, 0, 0, false
	}
}

// intervalsByStart sorts intervals by start time through a pointer
// receiver, keeping the sort.Interface conversion allocation-free on the
// audit hot path.
type intervalsByStart []Interval

func (x *intervalsByStart) Len() int           { return len(*x) }
func (x *intervalsByStart) Swap(i, j int)      { (*x)[i], (*x)[j] = (*x)[j], (*x)[i] }
func (x *intervalsByStart) Less(i, j int) bool { return (*x)[i].Start < (*x)[j].Start }

// Auditor audits schedules through a reusable interval scratch buffer,
// so a caller that audits many schedules (sdemd's explain path pools
// them) does not allocate per call. A zero Auditor is ready to use; it
// is not safe for concurrent use.
//
// The package-level Audit and AuditPerCore construct a throwaway Auditor:
// same results, no reuse.
type Auditor struct {
	ivs intervalsByStart
}

// mergedCore fills the scratch with the merged busy intervals of one
// core's segments. The result aliases the scratch: consume it before the
// next merged* call.
func (a *Auditor) mergedCore(segs []Segment) []Interval {
	a.ivs = a.ivs[:0]
	for _, sg := range segs {
		a.ivs = append(a.ivs, Interval{sg.Start, sg.End})
	}
	return mergeInPlace(&a.ivs)
}

// mergedAll fills the scratch with the merged busy intervals of every
// core — the memory's busy intervals. Same aliasing rule as mergedCore.
func (a *Auditor) mergedAll(s *Schedule) []Interval {
	a.ivs = a.ivs[:0]
	for _, segs := range s.Cores {
		for _, sg := range segs {
			a.ivs = append(a.ivs, Interval{sg.Start, sg.End})
		}
	}
	return mergeInPlace(&a.ivs)
}

// MemoryGaps calls fn for each idle gap of the memory — the horizon
// [s.Start, s.End] minus every core's execution — in time order, merging
// in the auditor's scratch instead of fresh slices. These are the gaps
// the audit charges. fn must not use the auditor: the walk reads its
// scratch.
func (a *Auditor) MemoryGaps(s *Schedule, fn func(Interval)) {
	walkGaps(a.mergedAll(s), s.Start, s.End, fn)
}

// CoreGaps calls fn for each idle gap of one core running segs within the
// horizon of s, in time order, merging in the auditor's scratch (same
// rule for fn). A core with no segments has one gap, the whole horizon.
func (a *Auditor) CoreGaps(s *Schedule, segs []Segment, fn func(Interval)) {
	walkGaps(a.mergedCore(segs), s.Start, s.End, fn)
}

// mergeInPlace sorts (if needed) and Tol-merges the intervals in place,
// returning the merged prefix: the one interval merge of the package,
// behind the Auditor's scratch and the Meter's open batch. Merging is
// order-insensitive among equal starts, so the result depends only on
// the multiset of intervals. It takes the slice by pointer so the
// sort.Interface conversion does not box a slice header.
//
//sdem:hotpath
func mergeInPlace(ivs *intervalsByStart) []Interval {
	s := *ivs
	if len(s) == 0 {
		return nil
	}
	sorted := true
	for i := 1; i < len(s); i++ {
		if s[i].Start < s[i-1].Start {
			sorted = false
			break
		}
	}
	if !sorted {
		sort.Sort(ivs)
	}
	// The write index never passes the read index.
	out := s[:1]
	for _, iv := range s[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End+Tol {
			if iv.End > last.End {
				last.End = iv.End
			}
		} else {
			//lint:allow hotalloc: appends into the backing it reads from; len never exceeds the existing cap
			out = append(out, iv)
		}
	}
	return out
}

// speedSwitch reports whether a core moving from speed prev to speed next
// changes its DVS frequency: the one speed-switch rule of the audit, the
// meter and Coalesce.
func speedSwitch(prev, next float64) bool {
	return math.Abs(next-prev) > Tol*math.Max(1, next)
}

// chargeCoreGap charges one core idle gap into the breakdown.
func chargeCoreGap(b *Breakdown, g float64, core power.Core, p SleepPolicy) {
	st, tr, _, slept := gapCost(g, core.Static, core.BreakEven, p)
	b.CoreStatic += st
	b.CoreTransition += tr
	if slept {
		b.CoreSleeps++
	}
}

// auditCore charges one core's execution, idle gaps and DVS switches
// into the breakdown.
func (a *Auditor) auditCore(b *Breakdown, s *Schedule, core power.Core, segs []Segment) {
	horizon := math.Max(0, s.End-s.Start)
	for i, sg := range segs {
		d := sg.End - sg.Start
		b.CoreDynamic += core.Dynamic(sg.Speed) * d
		b.CoreStatic += core.Static * d
		// A DVS switch happens whenever consecutive executions of this
		// core run at different speeds (sleep/wake costs are charged
		// separately via the break-even model).
		if i > 0 && speedSwitch(segs[i-1].Speed, sg.Speed) {
			b.SpeedSwitches++
			b.CoreSwitch += core.SwitchEnergy
		}
	}
	if len(segs) == 0 {
		// A never-used core: under SleepNever it idles the whole
		// horizon; under any sleeping policy it simply stays asleep (no
		// transition — it never woke).
		if s.CorePolicy == SleepNever {
			b.CoreStatic += core.Static * horizon
		}
		return
	}
	// This loop and auditMemory's are walkGaps inlined: same arithmetic,
	// same order, without a capturing closure on the Audit hot path.
	cur := s.Start
	for _, iv := range a.mergedCore(segs) {
		if iv.Start > cur+Tol {
			chargeCoreGap(b, iv.Start-cur, core, s.CorePolicy)
		}
		if iv.End > cur {
			cur = iv.End
		}
	}
	if s.End > cur+Tol {
		chargeCoreGap(b, s.End-cur, core, s.CorePolicy)
	}
}

// auditMemory charges memory busy time and idle gaps into the breakdown.
func (a *Auditor) auditMemory(b *Breakdown, s *Schedule, mem power.Memory) {
	horizon := math.Max(0, s.End-s.Start)
	busy := a.mergedAll(s)
	var busyLen float64
	for _, iv := range busy {
		busyLen += iv.Len()
	}
	b.MemoryStatic += mem.Static * busyLen
	if numeric.IsZero(busyLen, Tol) {
		// Memory never woke: it sleeps through the whole horizon for
		// free under sleeping policies, or idles under SleepNever.
		if s.MemoryPolicy == SleepNever {
			b.MemoryStatic += mem.Static * horizon
		} else {
			b.MemorySleep += horizon
		}
		return
	}
	cur := s.Start
	for _, iv := range busy {
		if iv.Start > cur+Tol {
			chargeMemGap(b, iv.Start-cur, mem, s.MemoryPolicy)
		}
		if iv.End > cur {
			cur = iv.End
		}
	}
	if s.End > cur+Tol {
		chargeMemGap(b, s.End-cur, mem, s.MemoryPolicy)
	}
}

// chargeMemGap charges one memory idle gap into the breakdown.
func chargeMemGap(b *Breakdown, g float64, mem power.Memory, p SleepPolicy) {
	st, tr, slept, sl := gapCost(g, mem.Static, mem.BreakEven, p)
	b.MemoryStatic += st
	b.MemoryTransition += tr
	b.MemorySleep += slept
	if sl {
		b.MemorySleeps++
	}
}

// Audit derives the energy breakdown of the schedule under the given
// (homogeneous-core) system model, reusing the auditor's scratch.
//
//sdem:hotpath
func (a *Auditor) Audit(s *Schedule, sys power.System) Breakdown {
	var b Breakdown
	numCores := s.NumCores
	if len(s.Cores) > numCores {
		numCores = len(s.Cores)
	}
	for c := 0; c < numCores; c++ {
		var segs []Segment
		if c < len(s.Cores) {
			segs = s.Cores[c]
		}
		a.auditCore(&b, s, sys.Core, segs)
	}
	a.auditMemory(&b, s, sys.Memory)
	return b
}

// AuditPerCore audits a schedule on heterogeneous cores, reusing the
// auditor's scratch: cores[i] is the power model of core i (§4's
// heterogeneous-core extension). Cores beyond len(cores) reuse the last
// model.
func (a *Auditor) AuditPerCore(s *Schedule, cores []power.Core, mem power.Memory) Breakdown {
	var b Breakdown
	if len(cores) == 0 {
		cores = defaultCores
	}
	numCores := s.NumCores
	if len(s.Cores) > numCores {
		numCores = len(s.Cores)
	}
	for c := 0; c < numCores; c++ {
		var segs []Segment
		if c < len(s.Cores) {
			segs = s.Cores[c]
		}
		model := cores[len(cores)-1]
		if c < len(cores) {
			model = cores[c]
		}
		a.auditCore(&b, s, model, segs)
	}
	a.auditMemory(&b, s, mem)
	return b
}

// defaultCores is the zero-model fallback for AuditPerCore with no cores.
var defaultCores = []power.Core{{}}

// Audit derives the energy breakdown of the schedule under the given
// system model. It is deliberately independent from every algorithm's
// internal arithmetic.
func Audit(s *Schedule, sys power.System) Breakdown {
	var a Auditor
	return a.Audit(s, sys)
}

// AuditPerCore audits a schedule on heterogeneous cores: cores[i] is the
// power model of core i (§4's heterogeneous-core extension). Cores beyond
// len(cores) reuse the last model.
func AuditPerCore(s *Schedule, cores []power.Core, mem power.Memory) Breakdown {
	var a Auditor
	return a.AuditPerCore(s, cores, mem)
}
