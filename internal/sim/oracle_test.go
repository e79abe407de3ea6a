package sim

import (
	"strconv"

	"sdem/internal/schedule"
	"sdem/internal/telemetry"
)

// emitTraceEager is the as-run trace recorded the way Result recorded it
// before traces were deferred: written into the recorder at Result time,
// from the live stream, with every argument formatted to a string up
// front. It is the oracle the deferred source (asRunTrace) is pinned
// against byte for byte.
func emitTraceEager(s *Stream, misses []int) {
	sc := s.sched
	var a schedule.Auditor
	for c, segs := range sc.Cores {
		tid := c + 1
		for _, sg := range segs {
			s.tel.Span("task "+strconv.Itoa(sg.TaskID), "sim", sg.Start, sg.End, tid,
				telemetry.Str("task", strconv.FormatInt(int64(sg.TaskID), 10)),
				telemetry.Str("speed", strconv.FormatFloat(sg.Speed, 'g', -1, 64)))
		}
		if len(segs) == 0 {
			continue
		}
		a.CoreGaps(sc, segs, func(g schedule.Interval) {
			name := "core idle"
			if sc.CorePolicy.Decide(g.Len(), s.sys.Core.Static, s.sys.Core.BreakEven).Sleeps {
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
		if sc.MemoryPolicy.Decide(g.Len(), s.sys.Memory.Static, s.sys.Memory.BreakEven).Sleeps {
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
		s.tel.Instant("deadline miss", "sim", missTime(j), tid,
			telemetry.Str("task", strconv.FormatInt(int64(id), 10)))
	}
}
