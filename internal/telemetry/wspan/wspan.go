// Package wspan is the wall-clock half of the module's tracing story: a
// request-scoped span tree for the serve path, where latency is real
// (queue wait, lock contention, encode, socket writes) and virtual time
// does not exist. It complements — never replaces — the virtual-time
// trace in package telemetry: solver decisions stay on virtual time, and
// nothing in this package feeds the deterministic metrics dump, so
// stdout stays byte-identical with tracing on or off.
//
// wspan is, with its parent package, the entire sanctioned wall-clock
// quarantine: the telemetrycheck analyzer forbids time.Now/Since/Until
// everywhere else in the module. Code outside the quarantine handles
// only opaque *Trace / Span values and formatted strings.
//
// The tree is append-only and mutex-guarded, so concurrent handler
// stages (parallel batch items) may open spans on one trace. A nil
// *Trace is the not-sampled state: every method, including on the Span
// handles it returns, no-ops — the disabled path carries one nil check
// and no allocation.
//
// Interop surfaces:
//
//   - W3C trace context: ParseTraceparent accepts an incoming
//     `traceparent` header (adopting the caller's trace ID and parent
//     span), Traceparent renders the outgoing one.
//   - Server-Timing: ServerTiming renders the ended direct children of
//     the root as `name;dur=ms` entries for the response header.
//   - JSON: Doc is the whole tree as a document (nanosecond offsets
//     from the trace start), served by /debug/trace/{id} and aggregated
//     by cmd/sdemtrace; Doc.Verify is the tree contract that
//     sdemtrace -verify and the serve tests check.
package wspan

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sdem/internal/stats"
)

// procNonce is the random high half of every trace ID minted by this
// process; the low half is a SplitMix64 sequence, so IDs are unique per
// process and collision-resistant across a fleet without per-request
// entropy reads.
var (
	procNonce [8]byte
	traceSeq  atomic.Uint64
)

func init() {
	if _, err := rand.Read(procNonce[:]); err != nil {
		// Fall back to a fixed nonce: trace IDs stay unique in-process,
		// which is all local ring lookup needs.
		copy(procNonce[:], "sdemwspn")
	}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		traceSeq.Store(binary.LittleEndian.Uint64(seed[:]))
	}
}

// Note is one key/value annotation on a span (decision provenance:
// cache outcome, plan reuse counts, shed reason, ...).
type Note struct {
	Key string
	Val string
}

// span is one node of the tree. start/dur are offsets from the trace
// epoch on the monotonic clock; dur < 0 marks a still-open span.
type span struct {
	name   string
	parent int32 // index into Trace.spans; -1 for the root
	id     uint64
	start  time.Duration
	dur    time.Duration
	notes  []Note
}

// Trace is one request's wall-clock span tree. The zero value is not
// usable; construct with New. A nil *Trace is the not-sampled state.
type Trace struct {
	mu      sync.Mutex
	traceID [16]byte
	remote  uint64 // parent span ID adopted from an incoming traceparent (0 = locally rooted)
	epoch   time.Time
	spans   []span
}

// Span addresses one node of a Trace. The zero Span (and any Span from a
// nil Trace) is inert: Start returns another inert Span, End and Note
// no-op.
type Span struct {
	t *Trace
	i int32
}

// New starts a trace whose root span has the given name. The trace ID is
// minted from the process nonce and a whitened sequence counter.
func New(name string) *Trace {
	t := &Trace{epoch: time.Now()}
	copy(t.traceID[:8], procNonce[:])
	binary.BigEndian.PutUint64(t.traceID[8:], stats.SplitMix64(traceSeq.Add(1)))
	t.spans = append(t.spans, span{name: name, parent: -1, id: stats.SplitMix64(traceSeq.Add(1)), dur: -1})
	return t
}

// ParseTraceparent starts a trace adopting the trace ID and parent span
// of a W3C `traceparent` header value (version-00 form:
// 00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>). ok reports
// whether the header was well-formed; on any malformation the returned
// trace is freshly rooted, exactly as New, so a garbled header degrades
// to a local trace rather than an error.
func ParseTraceparent(header, name string) (t *Trace, ok bool) {
	t = New(name)
	if len(header) < 55 || header[2] != '-' || header[35] != '-' || header[52] != '-' {
		return t, false
	}
	if header[:2] == "ff" { // forbidden version
		return t, false
	}
	var traceID [16]byte
	if _, err := hex.Decode(traceID[:], []byte(header[3:35])); err != nil {
		return t, false
	}
	var parent [8]byte
	if _, err := hex.Decode(parent[:], []byte(header[36:52])); err != nil {
		return t, false
	}
	if traceID == ([16]byte{}) || parent == ([8]byte{}) {
		return t, false
	}
	t.traceID = traceID
	t.remote = binary.BigEndian.Uint64(parent[:])
	return t, true
}

// TraceID returns the 32-hex-digit trace ID, or "" on a nil trace.
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	return hex.EncodeToString(t.traceID[:])
}

// Traceparent renders the outgoing W3C header value for this trace, with
// the root span as parent and the sampled flag set; "" on a nil trace.
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], t.traceID[:])
	b[35] = '-'
	var id [8]byte
	t.mu.Lock()
	binary.BigEndian.PutUint64(id[:], t.spans[0].id)
	t.mu.Unlock()
	hex.Encode(b[36:52], id[:])
	b[52], b[53], b[54] = '-', '0', '1'
	return string(b[:])
}

// Root returns the root span handle.
func (t *Trace) Root() Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, i: 0}
}

// Start opens a child span under s. Safe from concurrent goroutines of
// one request (batch items); inert on the zero Span.
func (s Span) Start(name string) Span {
	t := s.t
	if t == nil {
		return Span{}
	}
	since := time.Since(t.epoch)
	t.mu.Lock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: s.i, id: stats.SplitMix64(traceSeq.Add(1)), start: since, dur: -1})
	t.mu.Unlock()
	return Span{t: t, i: i}
}

// End closes the span. Ending twice keeps the first duration.
func (s Span) End() {
	t := s.t
	if t == nil {
		return
	}
	since := time.Since(t.epoch)
	t.mu.Lock()
	if sp := &t.spans[s.i]; sp.dur < 0 {
		sp.dur = since - sp.start
	}
	t.mu.Unlock()
}

// Note annotates the span with a key/value pair.
func (s Span) Note(key, val string) {
	t := s.t
	if t == nil {
		return
	}
	t.mu.Lock()
	sp := &t.spans[s.i]
	sp.notes = append(sp.notes, Note{Key: key, Val: val})
	t.mu.Unlock()
}

// NoteInt annotates the span with an integer value.
func (s Span) NoteInt(key string, v int64) {
	if s.t == nil {
		return
	}
	s.Note(key, strconv.FormatInt(v, 10))
}

// Finish ends the root span (open descendants, a bug in stage
// bracketing, are left open and flagged by sdemtrace -verify) and
// returns the root's total duration.
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	t.Root().End()
	t.mu.Lock()
	d := t.spans[0].dur
	t.mu.Unlock()
	return d
}

// ServerTiming renders the ended direct children of the root in start
// order as a Server-Timing header value: `name;dur=1.234, ...` with
// millisecond durations. Repeated stage names (retried stages, batch
// items) accumulate. Returns "" on a nil trace or when no stage ended.
func (t *Trace) ServerTiming() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	type agg struct {
		name string
		dur  time.Duration
	}
	var stages []agg
	idx := make(map[string]int, 8)
	for _, sp := range t.spans {
		if sp.parent != 0 || sp.dur < 0 {
			continue
		}
		if j, ok := idx[sp.name]; ok {
			stages[j].dur += sp.dur
			continue
		}
		idx[sp.name] = len(stages)
		stages = append(stages, agg{sp.name, sp.dur})
	}
	t.mu.Unlock()
	if len(stages) == 0 {
		return ""
	}
	var b []byte
	for i, st := range stages {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, st.name...)
		b = append(b, ";dur="...)
		b = strconv.AppendFloat(b, float64(st.dur)/1e6, 'f', 3, 64)
	}
	return string(b)
}

// Doc is one wall-clock span tree as a JSON document: what
// /debug/trace/{id}?format=wall serves, sdemload -trace-out appends one
// per line and cmd/sdemtrace reads. Span order is creation order, so a
// span's parent index always precedes it.
type Doc struct {
	TraceID      string    `json:"trace_id"`
	RemoteParent string    `json:"remote_parent,omitempty"`
	Spans        []DocSpan `json:"spans"`
}

// DocSpan is one span of a Doc, with nanosecond offsets from the trace
// start.
type DocSpan struct {
	Name    string            `json:"name"`
	Parent  int               `json:"parent"` // -1 for the root
	SpanID  string            `json:"span_id"`
	StartNs int64             `json:"start_ns"`
	DurNs   int64             `json:"dur_ns"` // -1: never ended
	Notes   map[string]string `json:"notes,omitempty"`
}

// Doc returns the tree as a document, or nil on a nil trace.
func (t *Trace) Doc() *Doc {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := &Doc{TraceID: hex.EncodeToString(t.traceID[:]), Spans: make([]DocSpan, len(t.spans))}
	if t.remote != 0 {
		d.RemoteParent = hexID(t.remote)
	}
	for i, sp := range t.spans {
		ds := DocSpan{Name: sp.name, Parent: int(sp.parent), SpanID: hexID(sp.id), StartNs: int64(sp.start), DurNs: int64(sp.dur)}
		if len(sp.notes) > 0 {
			ds.Notes = make(map[string]string, len(sp.notes))
			for _, n := range sp.notes {
				ds.Notes[n.Key] = n.Val
			}
		}
		d.Spans[i] = ds
	}
	return d
}

// WriteJSON writes the Doc as one JSONL record ("null" on a nil trace).
func (t *Trace) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(t.Doc())
}

func hexID(id uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return hex.EncodeToString(b[:])
}

// Verify checks the structural invariants one span tree must hold:
// exactly one root, first, with parent -1; parent indices that precede
// their children; no never-ended spans; children contained in their
// parents; and the union-length of the root's direct children no longer
// than the root itself. It returns one error per violation.
func (d *Doc) Verify() []error {
	var errs []error
	if len(d.Spans) == 0 {
		return []error{fmt.Errorf("no spans")}
	}
	if len(d.TraceID) != 32 {
		errs = append(errs, fmt.Errorf("trace_id %q is not 32 hex chars", d.TraceID))
	}
	root := d.Spans[0]
	if root.Parent != -1 {
		errs = append(errs, fmt.Errorf("first span %q has parent %d, want -1 (root)", root.Name, root.Parent))
	}
	for i, sp := range d.Spans {
		if i > 0 && sp.Parent == -1 {
			errs = append(errs, fmt.Errorf("span %d %q is a second root", i, sp.Name))
			continue
		}
		if i > 0 && (sp.Parent < 0 || sp.Parent >= i) {
			errs = append(errs, fmt.Errorf("span %d %q: orphan — parent index %d does not precede it", i, sp.Name, sp.Parent))
			continue
		}
		if sp.DurNs < 0 {
			errs = append(errs, fmt.Errorf("span %d %q never ended", i, sp.Name))
			continue
		}
		if i == 0 {
			continue
		}
		p := d.Spans[sp.Parent]
		if p.DurNs >= 0 && (sp.StartNs < p.StartNs || sp.StartNs+sp.DurNs > p.StartNs+p.DurNs) {
			errs = append(errs, fmt.Errorf("span %d %q [%d,%d]ns escapes parent %q [%d,%d]ns",
				i, sp.Name, sp.StartNs, sp.StartNs+sp.DurNs,
				p.Name, p.StartNs, p.StartNs+p.DurNs))
		}
	}
	// Stage coverage of the request span, independent of the per-child
	// containment check above. Union, not sum: parallel batch item spans
	// overlap and must not trip this.
	if root.DurNs >= 0 {
		if u := d.StageUnion(); u > root.DurNs {
			errs = append(errs, fmt.Errorf("stage union %dns exceeds the %dns request span", u, root.DurNs))
		}
	}
	return errs
}

// StageUnion sweeps the ended direct children of the root and returns
// the length of the union of their intervals in nanoseconds.
func (d *Doc) StageUnion() int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, sp := range d.Spans {
		if i == 0 || sp.Parent != 0 || sp.DurNs < 0 {
			continue
		}
		ivs = append(ivs, iv{sp.StartNs, sp.StartNs + sp.DurNs})
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, hi int64
	hi = math.MinInt64
	for _, v := range ivs {
		if v.lo > hi {
			total += v.hi - v.lo
			hi = v.hi
		} else if v.hi > hi {
			total += v.hi - hi
			hi = v.hi
		}
	}
	return total
}
