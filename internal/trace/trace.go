// Package trace renders schedules as text Gantt charts for the CLI tools
// and examples: one row per core showing execution density, plus a memory
// row showing busy/sleep state.
package trace

import (
	"fmt"
	"math"
	"strings"

	"sdem/internal/schedule"
)

// visTol is the execution mass (speed·seconds per cell) below which a
// trace cell renders as idle; it matches schedule.Tol (1e-9) by value.
const visTol = 1e-9

// Options tunes the rendering.
type Options struct {
	// Width is the number of character columns of the time axis
	// (default 96).
	Width int
	// ShowSpeeds appends a per-core legend with segment speeds.
	ShowSpeeds bool
}

// glyphs maps execution density (fraction of a column that is busy) to a
// shade.
var glyphs = []rune{'·', '░', '▒', '▓', '█'}

// Render draws the schedule. Each core row shows per-column execution
// density; the MEM row shows '█' where at least one core executes and '·'
// where the memory may sleep.
func Render(s *schedule.Schedule, opts Options) string {
	width := opts.Width
	if width <= 0 {
		width = 96
	}
	span := s.End - s.Start
	var b strings.Builder
	fmt.Fprintf(&b, "horizon [%.4gs, %.4gs] (%.4gs)\n", s.Start, s.End, span)
	if span <= 0 {
		return b.String()
	}
	col := span / float64(width)

	density := func(ivs []schedule.Interval) []float64 {
		d := make([]float64, width)
		for _, iv := range ivs {
			lo := int((iv.Start - s.Start) / col)
			hi := int(math.Ceil((iv.End - s.Start) / col))
			for c := max(lo, 0); c < min(hi, width); c++ {
				cs := s.Start + float64(c)*col
				ce := cs + col
				overlap := math.Min(iv.End, ce) - math.Max(iv.Start, cs)
				if overlap > 0 {
					d[c] += overlap / col
				}
			}
		}
		return d
	}
	row := func(d []float64) string {
		var r strings.Builder
		for _, v := range d {
			idx := int(v * float64(len(glyphs)-1))
			if idx >= len(glyphs) {
				idx = len(glyphs) - 1
			}
			if idx < 0 {
				idx = 0
			}
			// Any execution at all must stay visible, however faint.
			if idx == 0 && v > visTol {
				idx = 1
			}
			r.WriteRune(glyphs[idx])
		}
		return r.String()
	}

	for c, segs := range s.Cores {
		ivs := make([]schedule.Interval, 0, len(segs))
		for _, sg := range segs {
			ivs = append(ivs, schedule.Interval{Start: sg.Start, End: sg.End})
		}
		fmt.Fprintf(&b, "core%-3d %s\n", c, row(density(ivs)))
		if opts.ShowSpeeds {
			for _, sg := range segs {
				fmt.Fprintf(&b, "        task %d: [%.4gs, %.4gs] @ %.3g MHz\n",
					sg.TaskID, sg.Start, sg.End, sg.Speed/1e6)
			}
		}
	}
	fmt.Fprintf(&b, "MEM     %s\n", row(density(s.MemoryBusy())))
	fmt.Fprintf(&b, "        common idle %.4gs of %.4gs (%.1f%%)\n",
		s.CommonIdle(), span, 100*s.CommonIdle()/span)
	return b.String()
}
