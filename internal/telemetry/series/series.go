package series

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"sdem/internal/telemetry"
)

// Window clocks. The clock names what one unit of the window axis means;
// wall time is deliberately not an option (DESIGN.md §12).
const (
	// ClockVirtual keys windows on simulated seconds (soak, experiments).
	ClockVirtual = "virtual_s"
	// ClockOrdinal keys windows on the monotone completion ordinal (serve).
	ClockOrdinal = "ordinal"
)

// Version identifies the JSONL dump layout.
const Version = "sdem.series.v2"

// Window is one aggregation interval of a campaign. Index is the window
// ordinal; the window covers clock values [Origin+Index*Interval,
// Origin+(Index+1)*Interval) of the owning Series. Counters and Floats
// hold deltas over the window (only keys that changed appear), Gauges
// holds the last sampled value of every gauge at the window's capture,
// and Sketches holds the quantile sketches of values observed during
// the window. Recorder histograms are not windowed: /metrics exposes
// them cumulatively. Keys are "name" or "name{labels}" with the
// recorder's canonical label form. A captured Window and everything it
// references is immutable.
type Window struct {
	Index    int64              `json:"w"`
	Counters map[string]int64   `json:"counters,omitempty"`
	Floats   map[string]float64 `json:"floats,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	Sketches map[string]*Sketch `json:"sketches,omitempty"`
}

// Empty reports whether the window recorded no change at all (gauge
// samples alone do not count: they are carried state, not activity).
func (w Window) Empty() bool {
	return len(w.Counters) == 0 && len(w.Floats) == 0 && len(w.Sketches) == 0
}

// Series is a complete windowed campaign: contiguous windows (indices
// 0..n-1, gap windows present but empty) over one clock.
type Series struct {
	Clock    string   `json:"clock"`
	Interval float64  `json:"interval"`
	Origin   float64  `json:"origin"`
	Alpha    float64  `json:"alpha"`
	Windows  []Window `json:"-"`
}

// WindowStart returns the clock value at which window idx opens.
func (s *Series) WindowStart(idx int64) float64 { return s.Origin + float64(idx)*s.Interval }

// header is the first JSONL record of a dump.
type header struct {
	Series   string  `json:"series"`
	Clock    string  `json:"clock"`
	Interval float64 `json:"interval"`
	Origin   float64 `json:"origin"`
	Alpha    float64 `json:"alpha"`
	Windows  int     `json:"windows"`
}

// WriteJSONL writes the dump: one header line, then one line per window
// in index order. The output is byte-deterministic for a fixed series
// (encoding/json sorts map keys; sketches marshal sorted buckets).
func (s *Series) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{
		Series: Version, Clock: s.Clock, Interval: s.Interval,
		Origin: s.Origin, Alpha: s.Alpha, Windows: len(s.Windows),
	}); err != nil {
		return err
	}
	for i := range s.Windows {
		if err := enc.Encode(&s.Windows[i]); err != nil {
			return fmt.Errorf("series: encoding window %d: %w", s.Windows[i].Index, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL decodes a dump written by WriteJSONL.
func ReadJSONL(r io.Reader) (*Series, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("series: empty dump")
	}
	var h header
	if err := unmarshalStrict(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("series: decoding header: %w", err)
	}
	if h.Series != Version {
		return nil, fmt.Errorf("series: dump version %q, want %q", h.Series, Version)
	}
	if h.Interval <= 0 {
		return nil, fmt.Errorf("series: dump interval %g must be positive", h.Interval)
	}
	out := &Series{Clock: h.Clock, Interval: h.Interval, Origin: h.Origin, Alpha: h.Alpha}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var w Window
		if err := unmarshalStrict(line, &w); err != nil {
			return nil, fmt.Errorf("series: decoding window %d: %w", len(out.Windows), err)
		}
		if w.Index != int64(len(out.Windows)) {
			return nil, fmt.Errorf("series: window %d out of order (expected index %d)", w.Index, len(out.Windows))
		}
		out.Windows = append(out.Windows, w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if h.Windows != len(out.Windows) {
		return nil, fmt.Errorf("series: dump truncated: header says %d windows, read %d", h.Windows, len(out.Windows))
	}
	return out, nil
}

// unmarshalStrict decodes JSON rejecting unknown fields, so a corrupted
// or mislabeled dump fails loudly instead of silently dropping data.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Coalesce merges every run of k consecutive windows into one, returning
// a new series with interval k times coarser. Counter, float and sketch
// deltas add across the run; gauges take the last captured sample in
// the run (the same value a coarser collector would have sampled at its
// boundary). Merging is exact for counts and sketch
// buckets and associative-order-stable for floats (windows fold in index
// order over sorted keys), which is what makes per-window capture plus
// Coalesce equal a whole-window recompute to float tolerance.
func (s *Series) Coalesce(k int) (*Series, error) {
	if k <= 0 {
		return nil, fmt.Errorf("series: coalesce factor %d must be positive", k)
	}
	out := &Series{Clock: s.Clock, Interval: s.Interval * float64(k), Origin: s.Origin, Alpha: s.Alpha}
	for i := 0; i < len(s.Windows); i += k {
		j := i + k
		if j > len(s.Windows) {
			j = len(s.Windows)
		}
		m, err := MergeWindows(s.Windows[i:j])
		if err != nil {
			return nil, err
		}
		m.Index = int64(i / k)
		out.Windows = append(out.Windows, m)
	}
	return out, nil
}

// MergeWindows folds consecutive windows into one (the first window's
// index is kept). Deltas add in window order; gauges take the last
// window's sample.
func MergeWindows(ws []Window) (Window, error) {
	if len(ws) == 0 {
		return Window{}, fmt.Errorf("series: merging zero windows")
	}
	out := Window{Index: ws[0].Index}
	for _, w := range ws {
		for _, k := range SortedKeys(w.Counters) {
			if out.Counters == nil {
				out.Counters = make(map[string]int64)
			}
			out.Counters[k] += w.Counters[k]
		}
		for _, k := range SortedKeys(w.Floats) {
			if out.Floats == nil {
				out.Floats = make(map[string]float64)
			}
			out.Floats[k] += w.Floats[k]
		}
		if len(w.Gauges) > 0 {
			g := make(map[string]float64, len(w.Gauges))
			for _, k := range SortedKeys(w.Gauges) {
				g[k] = w.Gauges[k]
			}
			out.Gauges = g
		}
		for _, k := range SortedKeys(w.Sketches) {
			if out.Sketches == nil {
				out.Sketches = make(map[string]*Sketch)
			}
			cur, ok := out.Sketches[k]
			if !ok {
				out.Sketches[k] = w.Sketches[k].Clone()
				continue
			}
			if err := cur.Merge(w.Sketches[k]); err != nil {
				return Window{}, fmt.Errorf("series: window %d sketch %q: %w", w.Index, k, err)
			}
		}
	}
	return out, nil
}

// SortedKeys returns the map's keys in ascending order; folding maps
// through it keeps every float accumulation order-deterministic.
func SortedKeys[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Collector captures windows from a live Recorder. Attach it to a
// campaign clock by calling Advance(clock) at event boundaries (virtual
// time) or TickWith per completion (ordinal); each boundary crossing
// snapshots the recorder and stores the delta against the previous
// capture as one Window. Feed quantile sketches with Observe —
// observations land in the window open at observation time.
//
// Windows attribute a delta to the window that was current when the
// recording happened (within one Advance stride), so the clock should be
// advanced at least once per window interval for sharp attribution.
//
// A collector keeps every window unless Retain bounds it to the most
// recent ones, as a long-running process must: its windows would
// otherwise grow with its lifetime.
//
// A nil *Collector is a no-op on every method, so call sites can thread
// an optional collector without branching. Collector methods are safe
// for concurrent use.
type Collector struct {
	mu       sync.Mutex
	rec      *telemetry.Recorder
	clock    string
	interval float64
	alpha    float64

	started  bool
	finished bool
	origin   float64
	cur      int64 // index of the open window
	ordinal  int64 // TickWith clock
	prev     telemetry.Snapshot
	live     map[string]*Sketch
	// windows holds the completed windows; once retain of them are held
	// it is a ring whose oldest window is at head, and dropped counts the
	// windows overwritten.
	windows []Window
	retain  int
	head    int
	dropped int64
}

// NewCollector starts a collector over rec with the given clock label
// (ClockVirtual or ClockOrdinal) and window interval in clock units.
// Sketches use DefaultAlpha.
func NewCollector(rec *telemetry.Recorder, clock string, interval float64) (*Collector, error) {
	if interval <= 0 || math.IsInf(interval, 0) || math.IsNaN(interval) {
		return nil, fmt.Errorf("series: window interval %g must be positive and finite", interval)
	}
	c := &Collector{rec: rec, clock: clock, interval: interval, alpha: DefaultAlpha}
	switch clock {
	case ClockVirtual:
		// Origin pins lazily to the first Advance (virtual time may open
		// anywhere, e.g. at the first release).
	case ClockOrdinal:
		// The ordinal clock always opens at 0, and the baseline snapshot
		// must predate the first completion's metrics, so start now.
		c.started = true
		c.prev = rec.Snapshot()
	default:
		return nil, fmt.Errorf("series: unknown window clock %q", clock)
	}
	return c, nil
}

// Retain bounds the collector to its n most recent completed windows
// (n <= 0 keeps every window). A snapshot of a bounded collector starts
// at the oldest window it kept: its origin moves past the dropped
// windows and its windows are numbered from 0 again, so the snapshot is
// a well-formed series of the clock span it covers. Call Retain before
// the first window completes.
func (c *Collector) Retain(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retain = max(n, 0)
}

// Observe feeds one value into the named sketch of the current window.
func (c *Collector) Observe(name string, v float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observeLocked(name, v)
}

func (c *Collector) observeLocked(name string, v float64) {
	if c.finished {
		return
	}
	if c.live == nil {
		c.live = make(map[string]*Sketch)
	}
	sk, ok := c.live[name]
	if !ok {
		sk = NewSketch(c.alpha)
		c.live[name] = sk
	}
	sk.Observe(v)
}

// Advance moves the window clock to clock, capturing every window whose
// end has been passed. The first call pins the series origin to the
// enclosing interval boundary.
func (c *Collector) Advance(clock float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(clock)
}

func (c *Collector) advanceLocked(clock float64) {
	if c.finished || math.IsNaN(clock) || math.IsInf(clock, 0) {
		return
	}
	if !c.started {
		c.started = true
		c.origin = math.Floor(clock/c.interval) * c.interval
		c.cur = 0
		c.prev = c.rec.Snapshot()
		return
	}
	idx := int64(math.Floor((clock - c.origin) / c.interval))
	if idx <= c.cur {
		return
	}
	c.captureLocked(idx)
}

// captureLocked closes the current window (attributing all recorder
// change since the previous capture to it), emits empty windows up to
// next, and opens window next.
func (c *Collector) captureLocked(next int64) {
	snap := c.rec.Snapshot()
	w := diffWindow(c.cur, c.prev, snap)
	w.Sketches = c.live
	if len(w.Sketches) == 0 {
		w.Sketches = nil
	}
	c.live = nil
	c.prev = snap
	c.push(w)
	for i := c.cur + 1; i < next; i++ {
		c.push(Window{Index: i})
	}
	c.cur = next
}

// push stores one completed window, overwriting the oldest once the
// collector holds retain of them.
func (c *Collector) push(w Window) {
	if c.retain == 0 || len(c.windows) < c.retain {
		c.windows = append(c.windows, w)
		return
	}
	c.windows[c.head] = w
	c.head = (c.head + 1) % c.retain
	c.dropped++
}

// TickWith records one sketch observation and advances the ordinal clock
// by one completion, atomically, so the observation always lands in the
// completing request's own window.
func (c *Collector) TickWith(name string, v float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observeLocked(name, v)
	c.ordinal++
	c.advanceLocked(float64(c.ordinal))
}

// Finish advances to clock, captures the final (possibly partial)
// window, and returns the completed series. The collector ignores all
// further calls.
func (c *Collector) Finish(clock float64) *Series {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(clock)
	if c.started && !c.finished {
		c.captureLocked(c.cur + 1)
	}
	c.finished = true
	return c.snapshotLocked()
}

// Snapshot returns the series captured so far (completed windows only;
// the open window is not included until its boundary passes). The
// returned series and its windows are immutable.
func (c *Collector) Snapshot() *Series {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

func (c *Collector) snapshotLocked() *Series {
	ws := make([]Window, 0, len(c.windows))
	ws = append(append(ws, c.windows[c.head:]...), c.windows[:c.head]...)
	for i := range ws {
		ws[i].Index -= c.dropped
	}
	return &Series{
		Clock:    c.clock,
		Interval: c.interval,
		Origin:   c.origin + float64(c.dropped)*c.interval,
		Alpha:    c.alpha,
		Windows:  ws,
	}
}

// diffWindow computes one window from two consecutive snapshots. Both
// snapshots are sorted by (Name, Labels), so every diff is a linear
// merge walk — no map iteration anywhere on this path.
func diffWindow(idx int64, prev, cur telemetry.Snapshot) Window {
	w := Window{Index: idx}
	// Counters: monotone, so a key missing from prev starts at 0.
	pi := 0
	for _, cp := range cur.Counters {
		for pi < len(prev.Counters) && pointLess(prev.Counters[pi].Name, prev.Counters[pi].Labels, cp.Name, cp.Labels) {
			pi++
		}
		base := int64(0)
		if pi < len(prev.Counters) && prev.Counters[pi].Name == cp.Name && prev.Counters[pi].Labels == cp.Labels {
			base = prev.Counters[pi].Value
		}
		if d := cp.Value - base; d != 0 {
			if w.Counters == nil {
				w.Counters = make(map[string]int64)
			}
			w.Counters[pointKey(cp.Name, cp.Labels)] = d
		}
	}
	pi = 0
	for _, fp := range cur.Floats {
		for pi < len(prev.Floats) && pointLess(prev.Floats[pi].Name, prev.Floats[pi].Labels, fp.Name, fp.Labels) {
			pi++
		}
		base := 0.0
		if pi < len(prev.Floats) && prev.Floats[pi].Name == fp.Name && prev.Floats[pi].Labels == fp.Labels {
			base = prev.Floats[pi].Value
		}
		//lint:allow floatcmp: presence filter — an exactly unchanged float sum is omitted from the window
		if d := fp.Value - base; d != 0 {
			if w.Floats == nil {
				w.Floats = make(map[string]float64)
			}
			w.Floats[pointKey(fp.Name, fp.Labels)] = d
		}
	}
	if len(cur.Gauges) > 0 {
		w.Gauges = make(map[string]float64, len(cur.Gauges))
		for _, gp := range cur.Gauges {
			w.Gauges[pointKey(gp.Name, gp.Labels)] = gp.Value
		}
	}
	return w
}

func pointKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func pointLess(an, al, bn, bl string) bool {
	if an != bn {
		return an < bn
	}
	return al < bl
}
