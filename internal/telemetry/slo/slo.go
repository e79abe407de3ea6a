// Package slo evaluates declarative service-level objectives over
// windowed telemetry series, producing a deterministic verdict document.
//
// A Spec names a per-window value — a ratio of two series, a sketch
// quantile, or the relative drift of a value against its own trailing
// baseline — and bounds it by Max. The spec is judged with multi-window
// burn rates: a window is "burning" when both its short and long
// trailing aggregate violate the bound (the classic fast-burn/slow-burn
// pairing, collapsed to plain per-window violation at the default
// 1-window ranges). The error budget then caps what fraction of
// eligible windows may burn before the objective fails.
//
// Everything here is arithmetic over a series.Series: no clocks, no
// maps ranged in nondeterministic order, so a verdict is byte-identical
// for byte-identical input series.
package slo

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"sdem/internal/telemetry/series"
)

// Kind selects how a spec's per-window value is computed.
type Kind string

const (
	// KindRatio bounds sum(Num)/sum(Den) over the burn range.
	KindRatio Kind = "ratio"
	// KindQuantile bounds quantile Q of the Sketch merged over the burn
	// range.
	KindQuantile Kind = "quantile"
	// KindDrift bounds the relative deviation of the window's ratio from
	// the mean of its trailing Baseline windows.
	KindDrift Kind = "drift"
)

// Spec is one declarative objective. Series keys (Num, Den, Sketch)
// name a window entry either exactly ("name{labels}") or by bare metric
// name, which sums every labeled instance of the metric.
type Spec struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	// Num and Den are counter or float-delta keys; ratio and drift use
	// Num/Den per window. An empty Den divides by 1.
	Num string `json:"num,omitempty"`
	Den string `json:"den,omitempty"`
	// Sketch and Q select a quantile objective's input.
	Sketch string  `json:"sketch,omitempty"`
	Q      float64 `json:"q,omitempty"`
	// Max is the bound the per-window value must not exceed (for drift,
	// the relative deviation bound, e.g. 0.2 = ±20%).
	Max float64 `json:"max"`
	// BurnShort and BurnLong are trailing window counts; both aggregates
	// must violate Max for a window to burn. 0 defaults to 1 (and
	// BurnLong to BurnShort), making violation purely per-window.
	BurnShort int `json:"burn_short,omitempty"`
	BurnLong  int `json:"burn_long,omitempty"`
	// Baseline is the drift kind's trailing-mean width (default 5).
	Baseline int `json:"baseline,omitempty"`
	// Budget is the allowed burning fraction of eligible windows in
	// [0, 1]. 0 means a single burning window fails the objective.
	Budget float64 `json:"budget"`
}

// Validate reports a malformed spec.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("slo: spec with empty name")
	}
	switch s.Kind {
	case KindRatio, KindDrift:
		if s.Num == "" {
			return fmt.Errorf("slo: spec %q (%s) needs a num series", s.Name, s.Kind)
		}
	case KindQuantile:
		if s.Sketch == "" {
			return fmt.Errorf("slo: spec %q (quantile) needs a sketch key", s.Name)
		}
		if s.Q < 0 || s.Q > 1 {
			return fmt.Errorf("slo: spec %q quantile %g out of [0,1]", s.Name, s.Q)
		}
	default:
		return fmt.Errorf("slo: spec %q has unknown kind %q", s.Name, s.Kind)
	}
	if s.Max < 0 || math.IsNaN(s.Max) || math.IsInf(s.Max, 0) {
		return fmt.Errorf("slo: spec %q max %g must be finite and non-negative", s.Name, s.Max)
	}
	if s.Budget < 0 || s.Budget > 1 || math.IsNaN(s.Budget) {
		return fmt.Errorf("slo: spec %q budget %g out of [0,1]", s.Name, s.Budget)
	}
	if s.BurnShort < 0 || s.BurnLong < 0 || s.Baseline < 0 {
		return fmt.Errorf("slo: spec %q has a negative window count", s.Name)
	}
	return nil
}

func (s Spec) burnShort() int {
	if s.BurnShort <= 0 {
		return 1
	}
	return s.BurnShort
}

func (s Spec) burnLong() int {
	if s.BurnLong <= 0 {
		return s.burnShort()
	}
	return s.BurnLong
}

func (s Spec) baseline() int {
	if s.Baseline <= 0 {
		return 5
	}
	return s.Baseline
}

// Run is one maximal streak of consecutive burning windows, inclusive.
type Run struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

// Result is the verdict of one spec.
type Result struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	// Max and Budget echo the spec's bounds.
	Max    float64 `json:"max"`
	Budget float64 `json:"budget"`
	// Windows counts eligible windows (those where the value is
	// defined); Burning counts how many of them burned.
	Windows int `json:"windows"`
	Burning int `json:"burning"`
	// Consumed is the burning fraction Burning/Windows.
	Consumed float64 `json:"consumed"`
	// Last and Worst are the final and worst defined per-window values
	// (for drift, the relative deviation).
	Last  float64 `json:"last"`
	Worst float64 `json:"worst"`
	// Timeline lists the breach runs in window order.
	Timeline []Run `json:"timeline,omitempty"`
	Pass     bool  `json:"pass"`
}

// Verdict is the full evaluation document.
type Verdict struct {
	Series struct {
		Clock    string  `json:"clock"`
		Interval float64 `json:"interval"`
		Origin   float64 `json:"origin"`
		Windows  int     `json:"windows"`
	} `json:"series"`
	Results []Result `json:"results"`
	Pass    bool     `json:"pass"`
}

// Failing returns the names of failed objectives.
func (v *Verdict) Failing() []string {
	var out []string
	for _, r := range v.Results {
		if !r.Pass {
			out = append(out, r.Name)
		}
	}
	return out
}

// WriteJSON writes the verdict as indented JSON, byte-deterministic for
// a fixed verdict.
func (v *Verdict) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSpecs decodes a JSON spec list (the `-slo specs.json` file format
// of sdemwatch).
func ReadSpecs(r io.Reader) ([]Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var specs []Spec
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("slo: decoding specs: %w", err)
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// Evaluate judges every spec against the series and assembles the
// verdict.
func Evaluate(s *series.Series, specs []Spec) (*Verdict, error) {
	v := &Verdict{Pass: true}
	v.Series.Clock = s.Clock
	v.Series.Interval = s.Interval
	v.Series.Origin = s.Origin
	v.Series.Windows = len(s.Windows)
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		r, err := evaluateSpec(s, spec)
		if err != nil {
			return nil, err
		}
		if !r.Pass {
			v.Pass = false
		}
		v.Results = append(v.Results, r)
	}
	return v, nil
}

func evaluateSpec(s *series.Series, spec Spec) (Result, error) {
	res := Result{Name: spec.Name, Kind: spec.Kind, Max: spec.Max, Budget: spec.Budget}
	short, long := spec.burnShort(), spec.burnLong()
	var haveWorst bool
	var prevBurn bool
	for w := range s.Windows {
		val, ok, err := windowValue(s, spec, w)
		if err != nil {
			return Result{}, err
		}
		if !ok {
			prevBurn = false
			continue
		}
		res.Windows++
		res.Last = val
		if !haveWorst || val > res.Worst {
			res.Worst = val
			haveWorst = true
		}
		burning := false
		if val > spec.Max {
			sv, sok, err := rangeValue(s, spec, w-short+1, w)
			if err != nil {
				return Result{}, err
			}
			lv, lok, err := rangeValue(s, spec, w-long+1, w)
			if err != nil {
				return Result{}, err
			}
			burning = sok && lok && sv > spec.Max && lv > spec.Max
		}
		if burning {
			res.Burning++
			idx := s.Windows[w].Index
			if prevBurn && len(res.Timeline) > 0 {
				res.Timeline[len(res.Timeline)-1].To = idx
			} else {
				res.Timeline = append(res.Timeline, Run{From: idx, To: idx})
			}
		}
		prevBurn = burning
	}
	if res.Windows > 0 {
		res.Consumed = float64(res.Burning) / float64(res.Windows)
	}
	res.Pass = res.Consumed <= spec.Budget
	return res, nil
}

// windowValue computes the spec's pointwise value at window w; ok is
// false when the value is undefined there (no traffic).
func windowValue(s *series.Series, spec Spec, w int) (val float64, ok bool, err error) {
	switch spec.Kind {
	case KindRatio:
		return ratioOver(s, spec, w, w)
	case KindQuantile:
		return quantileOver(s, spec, w, w)
	case KindDrift:
		cur, ok, err := ratioOver(s, spec, w, w)
		if err != nil || !ok {
			return 0, false, err
		}
		base, bok, err := trailingMean(s, spec, w)
		if err != nil {
			return 0, false, err
		}
		if !bok {
			return 0, false, nil
		}
		denom := math.Max(math.Abs(base), driftFloor)
		return math.Abs(cur-base) / denom, true, nil
	}
	return 0, false, fmt.Errorf("slo: unknown kind %q", spec.Kind)
}

// driftFloor keeps the drift denominator away from zero when a baseline
// value is legitimately ~0 (e.g. energy per job on an idle series).
const driftFloor = 1e-12

// rangeValue is the burn-range aggregate of the spec over windows
// [lo, hi] (clamped to the series).
func rangeValue(s *series.Series, spec Spec, lo, hi int) (float64, bool, error) {
	if lo < 0 {
		lo = 0
	}
	switch spec.Kind {
	case KindRatio:
		return ratioOver(s, spec, lo, hi)
	case KindQuantile:
		return quantileOver(s, spec, lo, hi)
	case KindDrift:
		// Drift is judged pointwise: the burn machinery only re-checks
		// the window itself.
		return windowValue(s, spec, hi)
	}
	return 0, false, fmt.Errorf("slo: unknown kind %q", spec.Kind)
}

// trailingMean averages the pointwise ratio over the Baseline windows
// preceding w (defined ones only); ok is false when none are defined.
func trailingMean(s *series.Series, spec Spec, w int) (float64, bool, error) {
	lo := w - spec.baseline()
	if lo < 0 {
		lo = 0
	}
	sum, n := 0.0, 0
	for i := lo; i < w; i++ {
		v, ok, err := ratioOver(s, spec, i, i)
		if err != nil {
			return 0, false, err
		}
		if ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, false, nil
	}
	return sum / float64(n), true, nil
}

func ratioOver(s *series.Series, spec Spec, lo, hi int) (float64, bool, error) {
	num := 0.0
	den := 0.0
	for w := lo; w <= hi && w < len(s.Windows); w++ {
		num += seriesValue(&s.Windows[w], spec.Num)
		if spec.Den != "" {
			den += seriesValue(&s.Windows[w], spec.Den)
		}
	}
	if spec.Den == "" {
		den = 1
	}
	if den <= 0 {
		return 0, false, nil
	}
	return num / den, true, nil
}

func quantileOver(s *series.Series, spec Spec, lo, hi int) (float64, bool, error) {
	var merged *series.Sketch
	for w := lo; w <= hi && w < len(s.Windows); w++ {
		for _, key := range matchKeys(sketchKeys(&s.Windows[w]), spec.Sketch) {
			sk := s.Windows[w].Sketches[key]
			if merged == nil {
				merged = sk.Clone()
				continue
			}
			if err := merged.Merge(sk); err != nil {
				return 0, false, fmt.Errorf("slo: spec %q: %w", spec.Name, err)
			}
		}
	}
	if merged.Count() == 0 {
		return 0, false, nil
	}
	return merged.Quantile(spec.Q), true, nil
}

// seriesValue resolves a spec key against one window, summing counters
// and float deltas whose key matches exactly or by bare metric name.
func seriesValue(w *series.Window, key string) float64 {
	if key == "" {
		return 0
	}
	total := 0.0
	for _, k := range matchKeys(counterKeys(w), key) {
		total += float64(w.Counters[k])
	}
	for _, k := range matchKeys(floatKeys(w), key) {
		total += w.Floats[k]
	}
	return total
}

// matchKeys filters sorted window keys down to those naming the spec
// key: an exact match, or any labeled instance "key{...}" of the bare
// metric name.
func matchKeys(keys []string, key string) []string {
	var out []string
	for _, k := range keys {
		if k == key || (strings.HasPrefix(k, key) && len(k) > len(key) && k[len(key)] == '{') {
			out = append(out, k)
		}
	}
	return out
}

func counterKeys(w *series.Window) []string { return series.SortedKeys(w.Counters) }
func floatKeys(w *series.Window) []string   { return series.SortedKeys(w.Floats) }
func sketchKeys(w *series.Window) []string  { return series.SortedKeys(w.Sketches) }
