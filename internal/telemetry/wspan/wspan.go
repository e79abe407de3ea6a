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
//   - JSON: AppendJSON renders the whole tree as a single-line JSON
//     object (nanosecond offsets from the trace start) consumed by
//     /debug/trace/{id} and aggregated by cmd/sdemtrace.
package wspan

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"io"
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

// AppendJSON appends the trace as a single-line JSON object:
//
//	{"trace_id":"…","spans":[{"name":"request","parent":-1,
//	  "span_id":"…","start_ns":0,"dur_ns":123,"notes":{"k":"v"}},…]}
//
// Span order is creation order, so a span's parent index always precedes
// it; dur_ns is -1 for spans never ended. Nil traces append "null".
func (t *Trace) AppendJSON(dst []byte) []byte {
	if t == nil {
		return append(dst, "null"...)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	dst = append(dst, `{"trace_id":"`...)
	dst = appendHex(dst, t.traceID[:])
	if t.remote != 0 {
		dst = append(dst, `","remote_parent":"`...)
		var p [8]byte
		binary.BigEndian.PutUint64(p[:], t.remote)
		dst = appendHex(dst, p[:])
	}
	dst = append(dst, `","spans":[`...)
	for i, sp := range t.spans {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = appendJSONString(dst, sp.name)
		dst = append(dst, `,"parent":`...)
		dst = strconv.AppendInt(dst, int64(sp.parent), 10)
		dst = append(dst, `,"span_id":"`...)
		var id [8]byte
		binary.BigEndian.PutUint64(id[:], sp.id)
		dst = appendHex(dst, id[:])
		dst = append(dst, `","start_ns":`...)
		dst = strconv.AppendInt(dst, int64(sp.start), 10)
		dst = append(dst, `,"dur_ns":`...)
		dst = strconv.AppendInt(dst, int64(sp.dur), 10)
		if len(sp.notes) > 0 {
			dst = append(dst, `,"notes":{`...)
			for j, n := range sp.notes {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = appendJSONString(dst, n.Key)
				dst = append(dst, ':')
				dst = appendJSONString(dst, n.Val)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, '}')
	}
	return append(dst, `]}`...)
}

// WriteJSON writes AppendJSON's document followed by a newline — one
// JSONL record.
func (t *Trace) WriteJSON(w io.Writer) error {
	_, err := w.Write(append(t.AppendJSON(nil), '\n'))
	return err
}

const hexdigits = "0123456789abcdef"

func appendHex(dst, src []byte) []byte {
	for _, c := range src {
		dst = append(dst, hexdigits[c>>4], hexdigits[c&0xf])
	}
	return dst
}

// appendJSONString appends s as a quoted JSON string, escaping the
// characters that cannot appear raw. Span names and note values are
// ASCII identifiers in practice; anything else passes through as UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			dst = append(dst, '\\', '"')
		case c == '\\':
			dst = append(dst, '\\', '\\')
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hexdigits[c>>4], hexdigits[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}
