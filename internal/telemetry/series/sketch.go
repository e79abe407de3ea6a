// Package series provides deterministic windowed time series over a
// telemetry.Recorder: counter/float deltas, gauge samples, and quantile
// sketches captured per window of a campaign clock. Collector is the
// one builder of windows; recorder histograms stay cumulative on
// /metrics and are not windowed. Dumps carry Version on their header
// line, and ReadJSONL rejects any other version.
//
// The window clock is never wall time. Soak and experiment campaigns key
// windows on virtual time; the serve path keys them on the monotone
// completion ordinal. That rule is what keeps series dumps byte-identical
// across repeat runs and `-workers` counts at a fixed seed, and it keeps
// the telemetrycheck wall-clock quarantine intact (this package imports
// no clock at all). See DESIGN.md §12.
package series

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// DefaultAlpha is the relative accuracy of sketches built by NewSketch:
// every reported quantile is within ±1% (relative) of an exact value at
// that rank.
const DefaultAlpha = 0.01

// sketchZeroMin is the smallest magnitude tracked by log buckets; values
// in [0, sketchZeroMin) land in the exact zero bucket. Anything this
// small is below every tolerance in the module, so collapsing it to zero
// loses nothing.
const sketchZeroMin = 1e-12

// Sketch is a mergeable log-bucket quantile sketch (DDSketch-shaped)
// with deterministic bucket edges: bucket i covers (gamma^(i-1),
// gamma^i], gamma = (1+alpha)/(1-alpha), so two sketches built with the
// same alpha — on one machine or many workers — always agree bucket for
// bucket and merge by adding counts. Quantiles are answered to relative
// rank error alpha. Negative observations are rejected (the module's
// sketched series — latencies, energies — are non-negative by
// construction).
//
// The zero Sketch is not usable; call NewSketch. A Sketch is not safe
// for concurrent use.
type Sketch struct {
	alpha      float64
	gamma      float64
	invLnGamma float64

	counts map[int]uint64 // log bucket index -> count
	zero   uint64         // observations in [0, sketchZeroMin)
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// NewSketch returns an empty sketch with the given relative accuracy
// (0 < alpha < 1). Pass DefaultAlpha unless a test needs another bound.
func NewSketch(alpha float64) *Sketch {
	if !(alpha > 0 && alpha < 1) {
		panic(fmt.Sprintf("series: sketch alpha %g out of (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:      alpha,
		gamma:      gamma,
		invLnGamma: 1 / math.Log(gamma),
		counts:     make(map[int]uint64),
		min:        math.Inf(1),
		max:        math.Inf(-1),
	}
}

// Alpha returns the sketch's relative accuracy bound.
func (s *Sketch) Alpha() float64 { return s.alpha }

// Count returns the number of observations.
func (s *Sketch) Count() uint64 {
	if s == nil {
		return 0
	}
	return s.count
}

// Sum returns the sum of all observations.
func (s *Sketch) Sum() float64 {
	if s == nil {
		return 0
	}
	return s.sum
}

// bucketOf maps a value (>= sketchZeroMin) to its log bucket index, the
// smallest i with gamma^i >= v.
func (s *Sketch) bucketOf(v float64) int {
	i := int(math.Ceil(math.Log(v) * s.invLnGamma))
	// Guard the float rounding at exact bucket edges: the representative
	// of bucket i must cover v within the alpha bound, which holds as
	// long as gamma^(i-1) < v <= gamma^i.
	if math.Pow(s.gamma, float64(i-1)) >= v {
		i--
	} else if math.Pow(s.gamma, float64(i)) < v {
		i++
	}
	return i
}

// representative returns the value reported for bucket i: the midpoint
// 2*gamma^i/(gamma+1), which is within relative alpha of every value in
// the bucket's range (gamma^(i-1), gamma^i].
func (s *Sketch) representative(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Observe adds one observation. Negative values are clamped to zero
// (they cannot occur in the series this module sketches; clamping keeps
// a stray -0.0 or tiny negative rounding residue from poisoning state).
func (s *Sketch) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	s.count++
	s.sum += v
	s.min = math.Min(s.min, v)
	s.max = math.Max(s.max, v)
	if v < sketchZeroMin {
		s.zero++
		return
	}
	s.counts[s.bucketOf(v)]++
}

// Merge folds other into s. Both sketches must share the same alpha
// (bucket layouts are incompatible otherwise).
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return nil
	}
	if !sameAlpha(s.alpha, other.alpha) {
		return fmt.Errorf("series: merging sketches with alpha %g and %g", s.alpha, other.alpha)
	}
	if other.count == 0 {
		return nil
	}
	for i, c := range other.counts {
		s.counts[i] += c
	}
	s.zero += other.zero
	s.count += other.count
	s.sum += other.sum
	s.min = math.Min(s.min, other.min)
	s.max = math.Max(s.max, other.max)
	return nil
}

// sameAlpha compares sketch accuracies for merge compatibility. Alphas
// come from the same literal constant in practice, so exact equality is
// the right test — a loose compare would merge incompatible layouts.
func sameAlpha(a, b float64) bool {
	//lint:allow floatcmp: bucket layouts are only compatible at the exact same alpha
	return a == b
}

// Quantile returns the value at quantile q in [0, 1] using the
// nearest-rank rule (rank ceil(q*n), rank 1 for q=0). The answer is a
// bucket representative clamped to the observed [min, max], so it is
// within relative error alpha of the exact order statistic. An empty
// sketch returns 0.
func (s *Sketch) Quantile(q float64) float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	if rank <= s.zero {
		return s.clamp(0)
	}
	cum := s.zero
	for _, i := range s.sortedBuckets() {
		cum += s.counts[i]
		if cum >= rank {
			return s.clamp(s.representative(i))
		}
	}
	return s.clamp(s.max)
}

// Min returns the smallest observation (0 when empty).
func (s *Sketch) Min() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *Sketch) Max() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return s.max
}

// clamp pins a representative inside the observed range, which both
// tightens the estimate and makes q=0 / q=1 exact.
func (s *Sketch) clamp(v float64) float64 {
	return math.Min(math.Max(v, s.min), s.max)
}

// sortedBuckets returns the populated bucket indices in ascending order.
func (s *Sketch) sortedBuckets() []int {
	idx := make([]int, 0, len(s.counts))
	for i := range s.counts {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// Clone returns an independent deep copy (nil for a nil sketch).
func (s *Sketch) Clone() *Sketch {
	if s == nil {
		return nil
	}
	c := *s
	c.counts = make(map[int]uint64, len(s.counts))
	for i, n := range s.counts {
		c.counts[i] = n
	}
	return &c
}

// MarshalJSON encodes the sketch as a fixed-field object with buckets as
// a numerically sorted [index, count] pair list — byte-deterministic for
// a fixed state, unlike a JSON map keyed by stringified indices (which
// encoding/json would sort lexically).
func (s *Sketch) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteString(`{"alpha":`)
	b.WriteString(ftoa(s.alpha))
	b.WriteString(`,"count":`)
	b.WriteString(strconv.FormatUint(s.count, 10))
	b.WriteString(`,"sum":`)
	b.WriteString(ftoa(s.sum))
	if s.count > 0 {
		b.WriteString(`,"min":`)
		b.WriteString(ftoa(s.min))
		b.WriteString(`,"max":`)
		b.WriteString(ftoa(s.max))
	}
	if s.zero > 0 {
		b.WriteString(`,"zero":`)
		b.WriteString(strconv.FormatUint(s.zero, 10))
	}
	b.WriteString(`,"buckets":[`)
	for n, i := range s.sortedBuckets() {
		if n > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		b.WriteString(strconv.Itoa(i))
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(s.counts[i], 10))
		b.WriteByte(']')
	}
	b.WriteString(`]}`)
	return []byte(b.String()), nil
}

// sketchWire is the decode shape of MarshalJSON's output.
type sketchWire struct {
	Alpha   float64    `json:"alpha"`
	Count   uint64     `json:"count"`
	Sum     float64    `json:"sum"`
	Min     float64    `json:"min"`
	Max     float64    `json:"max"`
	Zero    uint64     `json:"zero"`
	Buckets [][2]int64 `json:"buckets"`
}

// UnmarshalJSON decodes a sketch previously encoded by MarshalJSON.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var w sketchWire
	if err := unmarshalStrict(data, &w); err != nil {
		return fmt.Errorf("series: decoding sketch: %w", err)
	}
	if !(w.Alpha > 0 && w.Alpha < 1) {
		return fmt.Errorf("series: decoded sketch alpha %g out of (0,1)", w.Alpha)
	}
	n := NewSketch(w.Alpha)
	n.count = w.Count
	n.sum = w.Sum
	n.zero = w.Zero
	if w.Count > 0 {
		n.min, n.max = w.Min, w.Max
	}
	for _, p := range w.Buckets {
		if p[1] < 0 {
			return fmt.Errorf("series: decoded sketch bucket %d has negative count %d", p[0], p[1])
		}
		n.counts[int(p[0])] += uint64(p[1])
	}
	*s = *n
	return nil
}

// ftoa formats a float in the module's canonical round-trip form (the
// same formatting telemetry.WriteMetrics uses).
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
