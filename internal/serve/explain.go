// Decision provenance: the compact, per-gap record of WHY a schedule
// looks the way it does — the paper's race/sleep/crawl choice replayed
// from the finished schedule against the platform's break-even
// thresholds (ξ for cores, ξ_m for memory) and critical speeds.
//
// A computed response keeps only a provenance: the schedule the solver
// returned, the platform, and the ExplainSummary counts. The summary is
// filled inside the schedule cache's compute closure by one walk over
// pooled interval scratch, and the solve span's notes read it. The full
// Explanation — the capped per-gap and per-segment lists — is built from
// the kept schedule only when a reader asks: /v1/explain and
// /debug/trace/{id}. Nothing memoizes the document, so cache entries and
// trace-ring entries hold the schedule and the summary, never the lists.
// The provenance rides on the canonical TaskResponse in an unexported
// field (encoding/json skips it), keeping the byte-identity contract
// between cached and fresh response bodies intact.
package serve

import (
	"strconv"
	"sync"

	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/telemetry/wspan"
)

// explainGapCap bounds the per-gap detail of one explanation; schedules
// with more idle gaps report the first explainGapCap and set Truncated.
// The summary counters always cover every gap.
const explainGapCap = 256

// GapDecision is one idle gap's sleep-or-idle record.
type GapDecision struct {
	// Component is "memory" or "core <k>".
	Component string `json:"component"`
	// Start and End delimit the gap in virtual seconds.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// LengthS is the gap length, the quantity compared to break-even.
	LengthS float64 `json:"length_s"`
	// BreakEvenS is the component's break-even time ξ (ξ_m for memory).
	BreakEvenS float64 `json:"break_even_s"`
	// MarginS is LengthS − BreakEvenS: positive means the gap is past
	// break-even and sleeping pays.
	MarginS float64 `json:"margin_s"`
	// Decision is "sleep" or "idle".
	Decision string `json:"decision"`
	// NetGainJ is the energy the decision saved versus idling through
	// the gap (α·(len−ξ) for a break-even sleep; 0 when idling).
	NetGainJ float64 `json:"net_gain_j"`
}

// SpeedDecision is one execution segment's race/crawl/dvs record.
type SpeedDecision struct {
	// Core is the core index running the segment.
	Core int `json:"core"`
	// Task is the task ID of the segment.
	Task int `json:"task"`
	// Start and DurS place the segment in virtual time.
	Start float64 `json:"start"`
	DurS  float64 `json:"dur_s"`
	// Speed is the segment's DVS speed setting.
	Speed float64 `json:"speed"`
	// CriticalSpeed is the platform's clamped critical speed s_m — the
	// crawl floor below which slowing down wastes static energy.
	CriticalSpeed float64 `json:"critical_speed"`
	// Decision is "race" (at s_up), "crawl" (at the critical speed) or
	// "dvs" (an intermediate deadline-driven speed).
	Decision string `json:"decision"`
}

// ExplainSummary aggregates the whole schedule's decisions.
type ExplainSummary struct {
	Gaps        int     `json:"gaps"`
	Sleeps      int     `json:"sleeps"`
	Idles       int     `json:"idles"`
	SleepGainJ  float64 `json:"sleep_gain_j"`
	Segments    int     `json:"segments"`
	Races       int     `json:"races"`
	Crawls      int     `json:"crawls"`
	Dvs         int     `json:"dvs"`
	MemorySleep bool    `json:"memory_sleeps"`
}

// Explanation is the decision-provenance document of one schedule.
type Explanation struct {
	Scheduler    string `json:"scheduler"`
	CorePolicy   string `json:"core_policy"`
	MemoryPolicy string `json:"memory_policy"`
	// CoreBreakEvenS and MemoryBreakEvenS are the platform thresholds
	// every gap below was compared against.
	CoreBreakEvenS   float64         `json:"core_break_even_s"`
	MemoryBreakEvenS float64         `json:"memory_break_even_s"`
	CriticalSpeed    float64         `json:"critical_speed"`
	Summary          ExplainSummary  `json:"summary"`
	Gaps             []GapDecision   `json:"gaps,omitempty"`
	Speeds           []SpeedDecision `json:"speeds,omitempty"`
	// Truncated reports that the per-gap / per-segment detail was capped
	// (the summary still covers everything).
	Truncated bool `json:"truncated,omitempty"`
}

// speedTol classifies a segment speed as race / crawl when it sits
// within this relative tolerance of s_up / s_m; it matches schedule.Tol.
const speedTol = 1e-9

// provenance is what a computed response keeps of its schedule's
// decision provenance: the summary the span notes read, and what explain
// needs to rebuild the full document. The schedule is the solver's own
// result — fresh per run, never pooled scratch — and is never mutated.
type provenance struct {
	scheduler string
	sched     *schedule.Schedule
	sys       power.System
	summary   ExplainSummary
}

// auditors recycles the interval scratch the decision walks merge in.
var auditors = sync.Pool{New: func() any { return new(schedule.Auditor) }}

// newProvenance summarizes a finished schedule's decisions without
// building the per-gap lists; nil for a nil schedule.
func newProvenance(scheduler string, s *schedule.Schedule, sys power.System) *provenance {
	if s == nil {
		return nil
	}
	p := &provenance{scheduler: scheduler, sched: s, sys: sys}
	a := auditors.Get().(*schedule.Auditor)
	replay(a, s, sys, &p.summary, nil)
	auditors.Put(a)
	return p
}

// explain builds the full decision-provenance document from the kept
// schedule; nil on a nil provenance. Each call builds a fresh document.
func (p *provenance) explain() *Explanation {
	if p == nil {
		return nil
	}
	ex := &Explanation{
		Scheduler:        p.scheduler,
		CorePolicy:       p.sched.CorePolicy.String(),
		MemoryPolicy:     p.sched.MemoryPolicy.String(),
		CoreBreakEvenS:   p.sys.Core.BreakEven,
		MemoryBreakEvenS: p.sys.Memory.BreakEven,
		CriticalSpeed:    p.sys.Core.CriticalSpeed(0),
	}
	if n := min(p.summary.Gaps, explainGapCap); n > 0 {
		ex.Gaps = make([]GapDecision, 0, n)
	}
	if n := min(p.summary.Segments, explainGapCap); n > 0 {
		ex.Speeds = make([]SpeedDecision, 0, n)
	}
	a := auditors.Get().(*schedule.Auditor)
	replay(a, p.sched, p.sys, &ex.Summary, ex)
	auditors.Put(a)
	return ex
}

// replay walks a finished schedule's decisions in document order —
// memory gaps, then each core's gaps and segments in s.Cores order —
// counting every one into sum and, when ex is non-nil, appending its
// record to ex's detail lists up to explainGapCap each. Gaps come from
// the auditor's merge and are priced with schedule.SleepPolicy.Decide,
// so the provenance can never disagree with the energy accounting.
func replay(a *schedule.Auditor, s *schedule.Schedule, sys power.System, sum *ExplainSummary, ex *Explanation) {
	// gap counts one idle gap of core k (k < 0: the memory).
	gap := func(k int, g schedule.Interval, pol schedule.SleepPolicy, alpha, xi float64) {
		d := pol.Decide(g.Len(), alpha, xi)
		sum.Gaps++
		decision := "idle"
		if d.Sleeps {
			decision = "sleep"
			sum.Sleeps++
			sum.SleepGainJ += d.NetGain
		} else {
			sum.Idles++
		}
		if ex == nil {
			return
		}
		if len(ex.Gaps) >= explainGapCap {
			ex.Truncated = true
			return
		}
		component := "memory"
		if k >= 0 {
			component = coreName(k)
		}
		ex.Gaps = append(ex.Gaps, GapDecision{
			Component:  component,
			Start:      g.Start,
			End:        g.End,
			LengthS:    g.Len(),
			BreakEvenS: xi,
			MarginS:    d.Margin,
			Decision:   decision,
			NetGainJ:   d.NetGain,
		})
	}

	// Memory gaps: the union of all cores' busy time defines when the
	// memory may sleep — the paper's central coupling.
	mem := sys.Memory
	a.MemoryGaps(s, func(g schedule.Interval) {
		gap(-1, g, s.MemoryPolicy, mem.Static, mem.BreakEven)
		if g.Len() >= mem.BreakEven && s.MemoryPolicy.Decide(g.Len(), mem.Static, mem.BreakEven).Sleeps {
			sum.MemorySleep = true
		}
	})

	// Per-core gaps and segment speed classes.
	core := sys.Core
	sUp, sCrit := core.SpeedMax, core.CriticalSpeed(0)
	for k, segs := range s.Cores {
		a.CoreGaps(s, segs, func(g schedule.Interval) {
			gap(k, g, s.CorePolicy, core.Static, core.BreakEven)
		})
		for _, sg := range segs {
			sum.Segments++
			decision := "dvs"
			switch {
			case sUp > 0 && sg.Speed >= sUp*(1-speedTol):
				decision = "race"
				sum.Races++
			case sCrit > 0 && sg.Speed <= sCrit*(1+speedTol):
				decision = "crawl"
				sum.Crawls++
			default:
				sum.Dvs++
			}
			if ex == nil {
				continue
			}
			if len(ex.Speeds) >= explainGapCap {
				ex.Truncated = true
				continue
			}
			ex.Speeds = append(ex.Speeds, SpeedDecision{
				Core:          k,
				Task:          sg.TaskID,
				Start:         sg.Start,
				DurS:          sg.End - sg.Start,
				Speed:         sg.Speed,
				CriticalSpeed: sCrit,
				Decision:      decision,
			})
		}
	}
}

// noteProvenance summarizes a schedule's decisions onto a solve span, so
// the wall trace alone answers "what did the scheduler decide" without a
// second lookup. Inert on nil spans and nil provenance.
func noteProvenance(sp wspan.Span, p *provenance) {
	if p == nil {
		return
	}
	sp.NoteInt("gaps", int64(p.summary.Gaps))
	sp.NoteInt("sleeps", int64(p.summary.Sleeps))
	sp.NoteInt("races", int64(p.summary.Races))
	sp.NoteInt("crawls", int64(p.summary.Crawls))
	sp.Note("memory_sleeps", strconv.FormatBool(p.summary.MemorySleep))
}

// coreName interns the "core <k>" component names for small k.
var coreNames = []string{"core 0", "core 1", "core 2", "core 3", "core 4", "core 5", "core 6", "core 7"}

func coreName(k int) string {
	if k >= 0 && k < len(coreNames) {
		return coreNames[k]
	}
	return "core " + strconv.Itoa(k)
}
