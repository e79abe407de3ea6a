// Structured event tracing on virtual time.
//
// Trace events carry timestamps in schedule/sim seconds — never
// wall-clock — so a trace is a pure function of the experiment inputs and
// replays identically. Events are emitted as Chrome trace_event JSON
// loadable in chrome://tracing and ui.perfetto.dev, with seconds scaled
// to the microseconds that format expects.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Arg is one key/value annotation on a trace event. The value keeps its
// type: Num holds the float64 and Int the int64 as given, and only the
// Chrome writer formats them (ftoa and strconv.FormatInt), so recording an
// argument formats nothing and field order is fixed.
type Arg struct {
	Key     string
	kind    argKind
	str     string
	num     float64
	integer int64
}

// argKind tells which field of an Arg holds its value.
type argKind uint8

const (
	argStr argKind = iota
	argNum
	argInt
)

// Str builds a string-valued trace argument.
func Str(key, val string) Arg { return Arg{Key: key, str: val} }

// Num builds a numeric trace argument, written with full round-trip
// precision.
func Num(key string, v float64) Arg { return Arg{Key: key, kind: argNum, num: v} }

// Int builds an integer-valued trace argument.
func Int(key string, v int64) Arg { return Arg{Key: key, kind: argInt, integer: v} }

// text is the argument's value as the Chrome writer prints it.
func (a Arg) text() string {
	switch a.kind {
	case argNum:
		return ftoa(a.num)
	case argInt:
		return strconv.FormatInt(a.integer, 10)
	default:
		return a.str
	}
}

// Event is one trace record. Phase 'X' is a complete span with duration;
// phase 'i' is an instant. TS and Dur are virtual seconds; PID groups
// events by work item (e.g. sweep grid point) and TID by lane within it
// (tid 0 = memory, tid k+1 = core k, by convention in the sim).
type Event struct {
	Name  string
	Cat   string
	Phase byte
	TS    float64
	Dur   float64
	PID   int
	TID   int
	Args  []Arg
}

// Span records a completed interval [start, end] in virtual seconds on
// lane tid. Degenerate spans (end ≤ start) are recorded with zero
// duration rather than dropped, so counts stay exact.
func (r *Recorder) Span(name, cat string, start, end float64, tid int, args ...Arg) {
	if r == nil {
		return
	}
	d := end - start
	if d < 0 {
		d = 0
	}
	r.mu.Lock()
	r.events = append(r.events, Event{Name: name, Cat: cat, Phase: 'X', TS: start, Dur: d, PID: r.pid, TID: tid, Args: args})
	r.mu.Unlock()
}

// Instant records a point event at virtual time ts on lane tid.
func (r *Recorder) Instant(name, cat string, ts float64, tid int, args ...Arg) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, Event{Name: name, Cat: cat, Phase: 'i', TS: ts, PID: r.pid, TID: tid, Args: args})
	r.mu.Unlock()
}

// source is a deferred event source: fn renders its events on read, at
// position at of the recorder's event list, under pid.
type source struct {
	at  int
	pid int
	fn  func(*Recorder)
}

// Defer registers fn as an event source rendered only when the trace is
// read (Events, WriteChromeTrace). On each read fn records into a fresh
// recorder carrying r's pid, and its events are spliced in at the
// position of r's event list where Defer was called, so the read sees
// exactly what calling fn on r at that moment would have recorded. fn
// may run once per read, concurrently with other reads, so it must be a
// pure function of state it owns; metrics it records are discarded.
// Merge carries deferred sources to the parent; MergeMetrics drops them
// with the events.
func (r *Recorder) Defer(fn func(*Recorder)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sources = append(r.sources, source{at: len(r.events), pid: r.pid, fn: fn})
	r.mu.Unlock()
}

// Events returns a copy of the recorded events, deferred sources
// rendered, in stable sorted order: by (PID, TS, TID, Name). Sorting is
// stable so equal-key events keep their recording order, which is itself
// deterministic.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := r.render(nil)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		//lint:allow floatcmp: sort tie-breaking must be exact to keep the comparator transitive
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Name < b.Name
	})
	return out
}

// render appends r's events to dst in recording order, each deferred
// source's events spliced in at its position. Sources run outside r.mu.
func (r *Recorder) render(dst []Event) []Event {
	r.mu.Lock()
	events := r.events[:len(r.events):len(r.events)]
	sources := r.sources[:len(r.sources):len(r.sources)]
	r.mu.Unlock()
	if dst == nil {
		dst = make([]Event, 0, len(events))
	}
	prev := 0
	for _, src := range sources {
		dst = append(dst, events[prev:src.at]...)
		prev = src.at
		tmp := &Recorder{pid: src.pid}
		src.fn(tmp)
		dst = tmp.render(dst)
	}
	return append(dst, events[prev:]...)
}

// jsonString escapes s as a JSON string literal. Hand-rolled so the
// Chrome writer's bytes are deterministic with no reflection.
func jsonString(b *strings.Builder, s string) {
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c == '\n':
			b.WriteString(`\n`)
		case c == '\t':
			b.WriteString(`\t`)
		case c < 0x20:
			fmt.Fprintf(b, `\u%04x`, c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
}

func writeArgs(b *strings.Builder, args []Arg) {
	b.WriteByte('{')
	for i, a := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		jsonString(b, a.Key)
		b.WriteByte(':')
		jsonString(b, a.text())
	}
	b.WriteByte('}')
}

// WriteChromeTrace emits the Chrome trace_event JSON array format.
// Virtual seconds are scaled to the format's microseconds; metadata
// events name each pid "grid point <pid>" and each tid lane ("memory" /
// "core <k>") so Perfetto renders sim traces legibly. Output is
// byte-stable for a given computation.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	events := r.Events()
	pids := map[int]bool{}
	type lane struct{ pid, tid int }
	lanes := map[lane]bool{}
	for _, e := range events {
		pids[e.PID] = true
		lanes[lane{e.PID, e.TID}] = true
	}
	pidList := make([]int, 0, len(pids))
	for p := range pids {
		pidList = append(pidList, p)
	}
	sort.Ints(pidList)
	laneList := make([]lane, 0, len(lanes))
	for l := range lanes {
		laneList = append(laneList, l)
	}
	sort.Slice(laneList, func(i, j int) bool {
		if laneList[i].pid != laneList[j].pid {
			return laneList[i].pid < laneList[j].pid
		}
		return laneList[i].tid < laneList[j].tid
	})

	var b strings.Builder
	b.WriteString("[")
	first := true
	meta := func(name string, pid, tid int, argKey, argVal string) {
		if !first {
			b.WriteString(",")
		}
		first = false
		b.WriteString("\n")
		fmt.Fprintf(&b, `{"name":%q,"ph":"M","pid":%d,"tid":%d,"args":{%q:%q}}`, name, pid, tid, argKey, argVal)
	}
	for _, p := range pidList {
		meta("process_name", p, 0, "name", fmt.Sprintf("grid point %d", p))
	}
	for _, l := range laneList {
		name := "memory"
		if l.tid > 0 {
			name = fmt.Sprintf("core %d", l.tid-1)
		}
		meta("thread_name", l.pid, l.tid, "name", name)
	}
	for _, e := range events {
		if !first {
			b.WriteString(",")
		}
		first = false
		b.WriteString("\n")
		b.WriteString(`{"name":`)
		jsonString(&b, e.Name)
		b.WriteString(`,"cat":`)
		jsonString(&b, e.Cat)
		b.WriteString(`,"ph":"`)
		b.WriteByte(e.Phase)
		b.WriteString(`","ts":`)
		b.WriteString(ftoa(e.TS * 1e6))
		if e.Phase == 'X' {
			b.WriteString(`,"dur":`)
			b.WriteString(ftoa(e.Dur * 1e6))
		}
		if e.Phase == 'i' {
			b.WriteString(`,"s":"t"`)
		}
		b.WriteString(`,"pid":`)
		b.WriteString(strconv.Itoa(e.PID))
		b.WriteString(`,"tid":`)
		b.WriteString(strconv.Itoa(e.TID))
		b.WriteString(`,"args":`)
		writeArgs(&b, e.Args)
		b.WriteString(`}`)
	}
	b.WriteString("\n]\n")
	_, err := io.WriteString(w, b.String())
	return err
}
