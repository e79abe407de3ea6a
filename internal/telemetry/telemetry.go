// Package telemetry is the observability layer of the SDEM module: a
// zero-dependency metrics registry, span-style structured event tracing
// on virtual (schedule/sim) time, and wall-clock profiling hooks.
//
// Three properties are load-bearing and tested:
//
//   - Zero cost when disabled. Every Recorder method is safe on a nil
//     receiver and returns immediately, so instrumented hot paths carry a
//     single nil check and no allocation (BenchmarkTelemetryDisabled
//     guards this).
//   - Replay determinism. Metric values and trace timestamps derive only
//     from deterministic inputs: counters and histograms record event
//     counts and virtual-time quantities, never wall-clock reads, and the
//     trace clock is schedule/sim time. Running the same experiment twice
//     — or with telemetry on versus off — yields identical computation
//     and identical telemetry.
//   - Worker-count independence. A sweep gives every grid point its own
//     child Recorder and merges them into the parent in grid-index order
//     (Merge iterates metrics in sorted key order), so even
//     floating-point accumulation order is fixed and the merged output is
//     byte-identical at any worker-pool width.
//
// Wall-clock time is deliberately quarantined: only the Profiler (and
// PoolProfile) read it, their output is segregated from the deterministic
// metrics dump, and the telemetrycheck lint analyzer forbids time.Now in
// every other package of the module.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Standard histogram bucket layouts. Layouts are fixed at registration so
// dumps are deterministic; all layouts use "v ≤ edge" bucket semantics
// with an implicit +Inf overflow bucket.
var (
	// BucketsSeconds spans virtual durations from microseconds to
	// minutes in decades.
	BucketsSeconds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100} //lint:allow tolconst: decade bucket edges in seconds, not tolerances
	// BucketsCount is a 1-2-5 ladder for small cardinalities (queue
	// lengths, active jobs, iterations).
	BucketsCount = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}
	// BucketsRatio covers signed relative quantities such as energy
	// saving ratios.
	BucketsRatio = []float64{-0.5, -0.2, -0.1, -0.05, -0.02, 0, 0.02, 0.05, 0.1, 0.2, 0.5}
	// BucketsJoules spans per-run energy magnitudes.
	BucketsJoules = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100} //lint:allow tolconst: decade bucket edges in joules, not tolerances
)

// DefaultLayouts maps the module's well-known histogram names to their
// bucket layouts; New registers them so every child inherits the layout
// and merges stay well-formed. Unlisted histograms use BucketsSeconds.
var DefaultLayouts = map[string][]float64{
	"sdem.solver.online.active_jobs": BucketsCount,
	"sdem.sweep.saving":              BucketsRatio,
	"sdem.sweep.point_energy_j":      BucketsJoules,
}

// key identifies one metric instance: dotted name plus a canonical label
// string ("k1=v1,k2=v2", empty for no labels).
type key struct {
	name, labels string
}

func (k key) String() string { return k.name + "{" + k.labels + "}" }

// exemplar pins one recent observation in a histogram bucket to a label
// set (canonical "k=v,k=v" form, typically a trace_id). Last write wins:
// exemplars are a sampling aid, not an accumulator.
type exemplar struct {
	labels string
	value  float64
	set    bool
}

// histogram is a fixed-layout distribution. counts[i] holds observations
// in (edges[i-1], edges[i]] (the first bucket is (-Inf, edges[0]]);
// counts[len(edges)] is the +Inf overflow bucket. exemplars, when
// non-nil, has one slot per bucket and is allocated lazily on the first
// exemplar-carrying observation, so plain histograms pay nothing.
type histogram struct {
	edges     []float64
	counts    []uint64
	count     uint64
	sum       float64
	min       float64
	max       float64
	exemplars []exemplar
}

func newHistogram(edges []float64) *histogram {
	return &histogram{
		edges:  edges,
		counts: make([]uint64, len(edges)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

func (h *histogram) observe(v float64) {
	if math.IsNaN(v) {
		return // NaN carries no information; dropping keeps dumps finite
	}
	i := sort.SearchFloat64s(h.edges, v) // first edge ≥ v, i.e. v ≤ edges[i]
	h.counts[i]++
	h.count++
	h.sum += v
	h.min = math.Min(h.min, v)
	h.max = math.Max(h.max, v)
}

// observeEx records v and pins it as the bucket's exemplar. An empty
// exemplar label set degenerates to a plain observation.
func (h *histogram) observeEx(v float64, exLabels string) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.edges, v)
	h.counts[i]++
	h.count++
	h.sum += v
	h.min = math.Min(h.min, v)
	h.max = math.Max(h.max, v)
	if exLabels == "" {
		return
	}
	if h.exemplars == nil {
		h.exemplars = make([]exemplar, len(h.edges)+1)
	}
	h.exemplars[i] = exemplar{labels: exLabels, value: v, set: true}
}

func (h *histogram) merge(o *histogram) {
	if len(o.edges) != len(h.edges) {
		return // layout mismatch: drop rather than corrupt (children copy layouts, so this cannot happen in-module)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	h.min = math.Min(h.min, o.min)
	h.max = math.Max(h.max, o.max)
	if o.exemplars != nil {
		if h.exemplars == nil {
			h.exemplars = make([]exemplar, len(h.counts))
		}
		for i, e := range o.exemplars {
			if e.set {
				h.exemplars[i] = e // child wins: the merge order is the arrival order
			}
		}
	}
}

// Recorder collects metrics and trace events for one unit of work. A nil
// *Recorder is the disabled state: every method no-ops. A Recorder is
// safe for concurrent use, but determinism of float sums requires each
// Recorder to be fed by one goroutine — parallel work uses one child
// Recorder per work item, merged in index order (see Merge).
type Recorder struct {
	mu       sync.Mutex
	pid      int
	counters map[key]int64
	floats   map[key]float64
	gauges   map[key]float64
	hists    map[key]*histogram
	layouts  map[string][]float64
	// ownLayouts marks the layouts map as private to this recorder.
	// Child shares the parent's map by reference (and clears the flag on
	// both sides), so spawning a per-request child costs one struct
	// allocation and zero maps; the first RegisterHistogram after
	// sharing clones copy-on-write. A shared layouts map is never
	// mutated, so lock-free reads from many children are safe.
	ownLayouts bool
	events     []Event
	// sources are the deferred event sources (see Defer), in recording
	// order; their positions index events and never decrease.
	sources []source

	// Prof is the wall-clock profiler attached to the root recorder by
	// New. Its measurements are explicitly outside the determinism
	// contract and are reported separately from the metrics dump.
	Prof *Profiler
}

// New returns an enabled root Recorder with an attached Profiler and the
// module's DefaultLayouts registered.
func New() *Recorder {
	r := &Recorder{Prof: NewProfiler(), ownLayouts: true}
	for name, edges := range DefaultLayouts {
		r.RegisterHistogram(name, edges)
	}
	return r
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Child returns a new Recorder that inherits the parent's histogram
// layouts and records under the given trace process ID. Sweeps give each
// grid point a child (pid = grid index) and Merge the children back in
// index order. The metric maps are created lazily on first write, so a
// child on a request path that records nothing allocates one struct and
// nothing else. Register all layouts before spawning children: sharing
// freezes the parent's layout map (later registrations clone it and are
// not seen by existing children, which then fall back to BucketsSeconds
// for the new name).
func (r *Recorder) Child(pid int) *Recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.ownLayouts = false
	layouts := r.layouts
	r.mu.Unlock()
	return &Recorder{pid: pid, layouts: layouts}
}

// RegisterHistogram fixes the bucket layout of every histogram named
// name. Edges must be strictly increasing; observations above the last
// edge land in an implicit +Inf bucket. Unregistered histograms use
// BucketsSeconds.
func (r *Recorder) RegisterHistogram(name string, edges []float64) {
	if r == nil {
		return
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			panic(fmt.Sprintf("telemetry: histogram %s edges not strictly increasing", name))
		}
	}
	r.mu.Lock()
	if !r.ownLayouts {
		clone := make(map[string][]float64, len(r.layouts)+1)
		for n, e := range r.layouts {
			clone[n] = e
		}
		r.layouts = clone
		r.ownLayouts = true
	}
	if r.layouts == nil {
		r.layouts = make(map[string][]float64)
	}
	r.layouts[name] = edges
	r.mu.Unlock()
}

// Count adds delta to the named counter.
func (r *Recorder) Count(name string, delta int64) { r.CountL(name, "", delta) }

// CountL adds delta to the named counter with the given label string
// (canonical "k=v,k=v" form).
func (r *Recorder) CountL(name, labels string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.counters == nil {
		r.counters = make(map[key]int64) //lint:allow hotalloc: one-time lazy init on the recorder's first counter, not per call
	}
	r.counters[key{name, labels}] += delta
	r.mu.Unlock()
}

// CounterValue returns the current value of the named, labeled counter,
// or 0 if it has never been incremented (or the recorder is disabled).
func (r *Recorder) CounterValue(name, labels string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	v := r.counters[key{name, labels}]
	r.mu.Unlock()
	return v
}

// Add accumulates v into the named float sum (e.g. joules).
func (r *Recorder) Add(name string, v float64) { r.AddL(name, "", v) }

// AddL accumulates v into the named, labeled float sum.
func (r *Recorder) AddL(name, labels string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.floats == nil {
		r.floats = make(map[key]float64)
	}
	r.floats[key{name, labels}] += v
	r.mu.Unlock()
}

// Gauge sets the named gauge. Gauges are last-write-wins; set them only
// from sequential code (merging overwrites parent values in merge order).
func (r *Recorder) Gauge(name string, v float64) { r.GaugeL(name, "", v) }

// GaugeL sets the named, labeled gauge.
func (r *Recorder) GaugeL(name, labels string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.gauges == nil {
		r.gauges = make(map[key]float64)
	}
	r.gauges[key{name, labels}] = v
	r.mu.Unlock()
}

// Observe records v into the named histogram.
func (r *Recorder) Observe(name string, v float64) { r.ObserveL(name, "", v) }

// ObserveL records v into the named, labeled histogram.
func (r *Recorder) ObserveL(name, labels string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.hist(key{name, labels})
	h.observe(v)
	r.mu.Unlock()
}

// ObserveExL records v into the named, labeled histogram instance and
// pins it as the exemplar of the bucket it lands in. exLabels is a
// canonical "k=v,k=v" label set identifying the originating event — by
// convention `trace_id=<hex>` — and is surfaced by Snapshot and the
// OpenMetrics export, never by the deterministic WriteMetrics dump
// (trace IDs are wall-clock-seeded and would break byte-stable dumps).
// An empty exLabels degenerates to ObserveL.
func (r *Recorder) ObserveExL(name, labels string, v float64, exLabels string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.hist(key{name, labels})
	h.observeEx(v, exLabels)
	r.mu.Unlock()
}

// hist returns the histogram for k, creating it from the registered
// layout (default BucketsSeconds) on first use. Callers hold r.mu.
func (r *Recorder) hist(k key) *histogram {
	h := r.hists[k]
	if h == nil {
		edges := r.layouts[k.name]
		if edges == nil {
			edges = BucketsSeconds
		}
		h = newHistogram(edges)
		if r.hists == nil {
			r.hists = make(map[key]*histogram) //lint:allow hotalloc: one-time lazy init on the recorder's first histogram, not per call
		}
		r.hists[k] = h
	}
	return h
}

// Merge folds a child recorder into r: counters and float sums add,
// histograms add bucket-wise, gauges overwrite, trace events and
// deferred sources append.
// Metrics are iterated in sorted key order so repeated merges of the same
// children in the same order produce bit-identical float sums regardless
// of how the children were computed (the worker-count independence
// guarantee).
func (r *Recorder) Merge(c *Recorder) { r.merge(c, true) }

// MergeMetrics folds only the child's metric state into r, leaving the
// child's trace events behind. A long-running server merges per-request
// children this way: the root recorder's memory stays bounded by the
// metric cardinality while the request's trace lives (and dies) with the
// bounded replay ring that owns the child.
func (r *Recorder) MergeMetrics(c *Recorder) { r.merge(c, false) }

func (r *Recorder) merge(c *Recorder, events bool) {
	if r == nil || c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(c.counters) > 0 && r.counters == nil {
		r.counters = make(map[key]int64, len(c.counters))
	}
	for _, k := range sortedKeys(c.counters) {
		r.counters[k] += c.counters[k]
	}
	if len(c.floats) > 0 && r.floats == nil {
		r.floats = make(map[key]float64, len(c.floats))
	}
	for _, k := range sortedKeys(c.floats) {
		r.floats[k] += c.floats[k]
	}
	if len(c.gauges) > 0 && r.gauges == nil {
		r.gauges = make(map[key]float64, len(c.gauges))
	}
	for _, k := range sortedKeys(c.gauges) {
		r.gauges[k] = c.gauges[k]
	}
	if len(c.hists) > 0 && r.hists == nil {
		r.hists = make(map[key]*histogram, len(c.hists))
	}
	hk := make([]key, 0, len(c.hists))
	for k := range c.hists {
		hk = append(hk, k)
	}
	sortKeys(hk)
	for _, k := range hk {
		ch := c.hists[k]
		h := r.hists[k]
		if h == nil {
			h = newHistogram(ch.edges)
			r.hists[k] = h
		}
		h.merge(ch)
	}
	if events {
		for _, src := range c.sources {
			src.at += len(r.events)
			r.sources = append(r.sources, src)
		}
		r.events = append(r.events, c.events...)
	}
}

func sortedKeys[V any](m map[key]V) []key {
	out := make([]key, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortKeys(out)
	return out
}

func sortKeys(ks []key) {
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].name != ks[j].name {
			return ks[i].name < ks[j].name
		}
		return ks[i].labels < ks[j].labels
	})
}

// ftoa formats floats for dumps with full round-trip precision, so equal
// dumps imply bit-equal values.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteMetrics dumps every metric in a stable text format, sorted by
// (name, labels): one line per counter/float/gauge, a summary line plus
// cumulative "le=" bucket lines per histogram. The dump of a given
// computation is byte-identical across runs and worker counts.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	b.WriteString("# sdem telemetry metrics v1\n")
	for _, k := range sortedKeys(r.counters) {
		fmt.Fprintf(&b, "counter %s %d\n", k, r.counters[k])
	}
	for _, k := range sortedKeys(r.floats) {
		fmt.Fprintf(&b, "float %s %s\n", k, ftoa(r.floats[k]))
	}
	for _, k := range sortedKeys(r.gauges) {
		fmt.Fprintf(&b, "gauge %s %s\n", k, ftoa(r.gauges[k]))
	}
	hk := make([]key, 0, len(r.hists))
	for k := range r.hists {
		hk = append(hk, k)
	}
	sortKeys(hk)
	for _, k := range hk {
		h := r.hists[k]
		mn, mx := h.min, h.max
		if h.count == 0 {
			mn, mx = 0, 0
		}
		fmt.Fprintf(&b, "hist %s count=%d sum=%s min=%s max=%s\n", k, h.count, ftoa(h.sum), ftoa(mn), ftoa(mx))
		var cum uint64
		for i, e := range h.edges {
			cum += h.counts[i]
			fmt.Fprintf(&b, "hist %s le=%s %d\n", k, ftoa(e), cum)
		}
		cum += h.counts[len(h.edges)]
		fmt.Fprintf(&b, "hist %s le=+Inf %d\n", k, cum)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
