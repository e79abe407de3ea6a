package workload

import (
	"fmt"
	"math"
	"math/rand"

	"sdem/internal/task"
)

// defaultResolution is the period-quantization step (seconds) used by
// Hyperperiod when the caller passes none: 1 µs keeps LCMs meaningful for
// millisecond-scale periods. A quantization step, not a tolerance.
const defaultResolution = 1e-6

// PeriodicStream is one periodic (or sporadic) task stream.
type PeriodicStream struct {
	// ID identifies the stream; job IDs are derived from it.
	ID int
	// Name optionally labels jobs ("fft", "ctrl-loop").
	Name string
	// Period is the (minimum) inter-release time in seconds.
	Period float64
	// Window is the relative deadline: each job's deadline is its
	// release plus Window. Zero means implicit deadline (= Period).
	Window float64
	// Workload is the cycles per job.
	Workload float64
	// Offset delays the first release.
	Offset float64
	// Jitter makes the stream sporadic: each inter-release time is drawn
	// uniformly from [Period, Period·(1+Jitter)]. Zero is strictly
	// periodic.
	Jitter float64
}

// window returns the effective relative deadline.
func (s PeriodicStream) window() float64 {
	if s.Window > 0 {
		return s.Window
	}
	return s.Period
}

// Validate reports whether the stream is well-formed.
func (s PeriodicStream) Validate() error {
	switch {
	case s.Period <= 0:
		return fmt.Errorf("periodic: stream %d period %g must be positive", s.ID, s.Period)
	case s.Window < 0:
		return fmt.Errorf("periodic: stream %d negative window %g", s.ID, s.Window)
	case s.Workload < 0:
		return fmt.Errorf("periodic: stream %d negative workload %g", s.ID, s.Workload)
	case s.Offset < 0:
		return fmt.Errorf("periodic: stream %d negative offset %g", s.ID, s.Offset)
	case s.Jitter < 0:
		return fmt.Errorf("periodic: stream %d negative jitter %g", s.ID, s.Jitter)
	}
	return nil
}

// Utilization returns the stream's processor utilization at the given
// reference speed: cycles per period over speed.
func (s PeriodicStream) Utilization(speed float64) float64 {
	if speed <= 0 || s.Period <= 0 {
		return math.Inf(1)
	}
	return s.Workload / (s.Period * speed)
}

// PeriodicSystem is a set of streams sharing the platform.
type PeriodicSystem []PeriodicStream

// Validate checks every stream and ID uniqueness.
func (ss PeriodicSystem) Validate() error {
	seen := make(map[int]bool, len(ss))
	for _, s := range ss {
		if err := s.Validate(); err != nil {
			return err
		}
		if seen[s.ID] {
			return fmt.Errorf("periodic: duplicate stream ID %d", s.ID)
		}
		seen[s.ID] = true
	}
	return nil
}

// Utilization returns the total utilization at the reference speed.
func (ss PeriodicSystem) Utilization(speed float64) float64 {
	var u float64
	for _, s := range ss {
		u += s.Utilization(speed)
	}
	return u
}

// Hyperperiod returns the least common multiple of the strictly
// periodic streams' periods, quantized to the given resolution to make
// LCM meaningful on floats. Jittered (sporadic) streams have no period
// to repeat and are skipped; it returns 0 when no stream is strictly
// periodic.
func (ss PeriodicSystem) Hyperperiod(resolution float64) float64 {
	if resolution <= 0 {
		resolution = defaultResolution
	}
	lcm := int64(0)
	for _, s := range ss {
		if s.Jitter > 0 {
			continue
		}
		if lcm == 0 {
			lcm = 1
		}
		p := int64(math.Round(s.Period / resolution))
		if p <= 0 {
			p = 1
		}
		lcm = lcm / gcd(lcm, p) * p
		if lcm < 0 || lcm > int64(1)<<52 {
			return math.Inf(1) // overflow: effectively aperiodic
		}
	}
	return float64(lcm) * resolution
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Expand instantiates every job released in [0, horizon) as a task set.
// Job IDs are streamID·10⁶ + index; jitter uses the seeded source so
// expansions are reproducible.
func (ss PeriodicSystem) Expand(horizon float64, seed int64) (task.Set, error) {
	if err := ss.Validate(); err != nil {
		return nil, err
	}
	if horizon < 0 {
		return nil, fmt.Errorf("periodic: negative horizon %g", horizon)
	}
	r := rand.New(rand.NewSource(seed))
	var out task.Set
	for _, s := range ss {
		rel := s.Offset
		for k := 0; rel < horizon; k++ {
			if k >= 1_000_000 {
				return nil, fmt.Errorf("periodic: stream %d expands to over 10^6 jobs", s.ID)
			}
			out = append(out, task.Task{
				ID:       s.ID*1_000_000 + k,
				Release:  rel,
				Deadline: rel + s.window(),
				Workload: s.Workload,
				Name:     fmt.Sprintf("%s#%d", s.Name, k),
			})
			step := s.Period
			if s.Jitter > 0 {
				step *= 1 + r.Float64()*s.Jitter
			}
			rel += step
		}
	}
	out.SortByRelease()
	return out, nil
}
