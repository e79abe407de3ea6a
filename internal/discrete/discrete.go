// Package discrete transforms the continuous-speed schedules of the SDEM
// solvers onto a processor with a finite DVS frequency ladder, using the
// classic Ishihara–Yasuura two-level split the paper's §3 invokes to
// justify the continuous-speed assumption: a task planned at speed s
// between adjacent levels l ≤ s ≤ h runs the fraction
// θ = (s − l)/(h − l) of its window at h and the rest at l — the same
// work in the same window, and provably the minimum-energy realization
// of that work on the ladder for any convex power function.
package discrete

import (
	"errors"
	"fmt"
	"sort"

	"sdem/internal/schedule"
)

// relTol is the package's relative speed tolerance for ladder clamping;
// it matches schedule.Tol (1e-9) by value.
const relTol = 1e-9

// Ladder is a sorted set of available DVS frequencies in Hz.
type Ladder []float64

// CortexA57Ladder returns the 200 MHz-step operating points of the
// paper's evaluation platform (700–1900 MHz).
func CortexA57Ladder() Ladder {
	return Ladder{7e8, 9e8, 1.1e9, 1.3e9, 1.5e9, 1.7e9, 1.9e9}
}

// Validate checks that the ladder is sorted, positive and non-empty.
func (l Ladder) Validate() error {
	if len(l) == 0 {
		return errors.New("discrete: empty frequency ladder")
	}
	for i, f := range l {
		if f <= 0 {
			return fmt.Errorf("discrete: non-positive frequency %g", f)
		}
		if i > 0 && f <= l[i-1] {
			return fmt.Errorf("discrete: ladder not strictly increasing at %d", i)
		}
	}
	return nil
}

// Bracket returns the adjacent ladder levels lo ≤ s ≤ hi. For s below
// the bottom level both return the bottom level; exact hits return the
// level twice. ok is false when s exceeds the top level.
func (l Ladder) Bracket(s float64) (lo, hi float64, ok bool) {
	n := len(l)
	if s > l[n-1]*(1+relTol) {
		return 0, 0, false
	}
	if s >= l[n-1] {
		return l[n-1], l[n-1], true
	}
	if s <= l[0] {
		return l[0], l[0], true
	}
	i := sort.SearchFloat64s(l, s) // first level ≥ s
	if l[i] == s {                 //lint:allow floatcmp: ladder levels are exact catalogue values; an exact hit needs no rounding slack
		return s, s, true
	}
	return l[i-1], l[i], true
}

// Quantize maps every segment of a continuous-speed schedule onto the
// ladder: a segment at speed s between levels (lo, hi) is split into a
// hi-speed prefix and a lo-speed suffix delivering the same work in the
// same interval; a segment below the bottom level runs at the bottom
// level and finishes early (the remainder of the interval idles). The
// result preserves per-task work and never extends any segment, so
// feasibility is preserved. It fails if any speed exceeds the top level.
func Quantize(s *schedule.Schedule, ladder Ladder) (*schedule.Schedule, error) {
	if err := ladder.Validate(); err != nil {
		return nil, err
	}
	out := schedule.New(s.NumCores, s.Start, s.End)
	out.CorePolicy, out.MemoryPolicy = s.CorePolicy, s.MemoryPolicy
	for c, segs := range s.Cores {
		for _, sg := range segs {
			lo, hi, ok := ladder.Bracket(sg.Speed)
			if !ok {
				return nil, fmt.Errorf("discrete: segment speed %.4g MHz exceeds top level %.4g MHz",
					sg.Speed/1e6, ladder[len(ladder)-1]/1e6)
			}
			dur := sg.End - sg.Start
			work := sg.Speed * dur
			switch {
			case lo == hi && sg.Speed >= lo: //lint:allow floatcmp: Bracket returns identical float values on exact hits
				// Exact hit or top clamp: run as-is at the level.
				out.Add(c, schedule.Segment{TaskID: sg.TaskID, Start: sg.Start, End: sg.End, Speed: sg.Speed})
				if sg.Speed != lo { //lint:allow floatcmp: defensive bit-exactness check against Bracket's contract
					// Defensive: Bracket guarantees sg.Speed == lo here.
					out.Cores[c][len(out.Cores[c])-1].Speed = lo
				}
			case sg.Speed < ladder[0]:
				// Below the bottom level: run at the bottom level for
				// work/l₀ seconds and idle the rest ("race" within the
				// segment).
				out.Add(c, schedule.Segment{
					TaskID: sg.TaskID,
					Start:  sg.Start,
					End:    sg.Start + work/ladder[0],
					Speed:  ladder[0],
				})
			default:
				// Two-level split: θ·dur at hi then (1−θ)·dur at lo.
				theta := (sg.Speed - lo) / (hi - lo)
				cut := sg.Start + theta*dur
				if cut > sg.Start+schedule.Tol {
					out.Add(c, schedule.Segment{TaskID: sg.TaskID, Start: sg.Start, End: cut, Speed: hi})
				}
				if sg.End > cut+schedule.Tol {
					out.Add(c, schedule.Segment{TaskID: sg.TaskID, Start: cut, End: sg.End, Speed: lo})
				}
			}
		}
	}
	out.Normalize()
	return out, nil
}

// UniformLadder builds an n-level ladder evenly spaced over [lo, hi] —
// useful for studying the continuous-vs-discrete gap as n grows.
func UniformLadder(lo, hi float64, n int) (Ladder, error) {
	if n < 1 || lo <= 0 || hi < lo {
		return nil, fmt.Errorf("discrete: bad uniform ladder (%g, %g, %d)", lo, hi, n)
	}
	if n == 1 {
		return Ladder{hi}, nil
	}
	out := make(Ladder, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out, nil
}

// MaxLevel returns the ladder's top frequency.
func (l Ladder) MaxLevel() float64 { return l[len(l)-1] }
