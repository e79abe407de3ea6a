package workload

import (
	"fmt"
	"math/rand"

	"sdem/internal/task"
)

// Source is a stream of task instances in non-decreasing release order.
// Streaming engines consume one task at a time, so an unbounded source
// costs O(1) memory regardless of how many instances it eventually
// emits.
type Source interface {
	// Next returns the next task instance, or ok=false when the stream
	// is exhausted. Releases never decrease across calls.
	Next() (t task.Task, ok bool)
}

// sporadicSource draws the §8.1.2 synthetic distribution as an
// unbounded stream.
type sporadicSource struct {
	cfg  SyntheticConfig
	r    *rand.Rand
	id   int
	rel  float64
	left int64 // remaining instances; < 0 means unbounded
}

// SporadicStream streams the §8.1.2 synthetic workload: the same
// inter-arrival, window and workload distributions as Synthetic, but
// emitted one instance at a time so a soak run can draw days of virtual
// time without materializing the set. limit bounds the number of
// instances (≤ 0 = unbounded — the consumer decides when to stop). IDs
// are sequential from 0; names are left empty to keep the steady-state
// garbage of long runs at zero.
func SporadicStream(cfg SyntheticConfig, seed int64, limit int64) (Source, error) {
	cfg = cfg.withDefaults()
	if cfg.WorkMin > cfg.WorkMax || cfg.WindowMin > cfg.WindowMax {
		return nil, fmt.Errorf("workload: inverted ranges in %+v", cfg)
	}
	if limit <= 0 {
		limit = -1
	}
	return &sporadicSource{cfg: cfg, r: rand.New(rand.NewSource(seed)), left: limit}, nil
}

func (s *sporadicSource) Next() (task.Task, bool) {
	if s.left == 0 {
		return task.Task{}, false
	}
	if s.left > 0 {
		s.left--
	}
	s.rel += s.r.Float64() * s.cfg.MaxInterArrival
	window := s.cfg.WindowMin + s.r.Float64()*(s.cfg.WindowMax-s.cfg.WindowMin)
	t := task.Task{
		ID:       s.id,
		Release:  s.rel,
		Deadline: s.rel + window,
		Workload: s.cfg.WorkMin + s.r.Float64()*(s.cfg.WorkMax-s.cfg.WorkMin),
	}
	s.id++
	return t, true
}

// Collect drains up to n tasks from the source into a set — the bridge
// from streaming generators to the batch APIs (and the tool tests use it
// to compare a stream against its batch counterpart).
func Collect(src Source, n int) task.Set {
	out := make(task.Set, 0, n)
	for len(out) < n {
		t, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, t)
	}
	return out
}
