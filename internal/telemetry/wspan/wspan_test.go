package wspan

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	if got := tr.TraceID(); got != "" {
		t.Errorf("nil TraceID = %q", got)
	}
	if got := tr.Traceparent(); got != "" {
		t.Errorf("nil Traceparent = %q", got)
	}
	if got := tr.ServerTiming(); got != "" {
		t.Errorf("nil ServerTiming = %q", got)
	}
	if got := tr.Finish(); got != 0 {
		t.Errorf("nil Finish = %v", got)
	}
	s := tr.Root()
	s2 := s.Start("child") // must not panic
	s2.Note("k", "v")
	s2.NoteInt("n", 7)
	s2.End()
	s.End()
	if d := tr.Doc(); d != nil {
		t.Errorf("nil Doc = %+v", d)
	}
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil || b.String() != "null\n" {
		t.Errorf("nil WriteJSON = %q, %v", b.String(), err)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	orig := New("client")
	header := orig.Traceparent()
	if len(header) != 55 || !strings.HasPrefix(header, "00-") {
		t.Fatalf("traceparent %q malformed", header)
	}
	adopted, ok := ParseTraceparent(header, "request")
	if !ok {
		t.Fatalf("ParseTraceparent rejected own header %q", header)
	}
	if adopted.TraceID() != orig.TraceID() {
		t.Errorf("trace ID not adopted: %q != %q", adopted.TraceID(), orig.TraceID())
	}
	if got := adopted.Doc().RemoteParent; got != header[36:52] {
		t.Errorf("remote parent = %q, want %q", got, header[36:52])
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	cases := []string{
		"",
		"00-abc",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero parent
		"00-4bf92f3577b34da6a3ce929d0e0e473Z-00f067aa0ba902b7-01", // non-hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad separator
	}
	for _, h := range cases {
		tr, ok := ParseTraceparent(h, "request")
		if ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
		if tr == nil || tr.TraceID() == "" {
			t.Errorf("ParseTraceparent(%q) did not fall back to a fresh trace", h)
		}
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := New("r").TraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
	}
}

// decode writes tr as JSON and reads it back as a Doc.
func decode(t testing.TB, tr *Trace) *Doc {
	t.Helper()
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON not valid JSON: %v\n%s", err, b.Bytes())
	}
	return &doc
}

func TestSpanTreeJSON(t *testing.T) {
	tr := New("request")
	adm := tr.Root().Start("admission")
	adm.End()
	solve := tr.Root().Start("solve")
	solve.Note("cache", "miss")
	solve.NoteInt("gaps", 3)
	inner := solve.Start("audit")
	inner.End()
	solve.End()
	tr.Finish()

	doc := decode(t, tr)
	if len(doc.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(doc.Spans))
	}
	if doc.Spans[0].Name != "request" {
		t.Errorf("root span wrong: %+v", doc.Spans[0])
	}
	if errs := doc.Verify(); len(errs) > 0 {
		t.Errorf("span tree violates the contract: %v", errs)
	}
	if doc.Spans[2].Notes["cache"] != "miss" || doc.Spans[2].Notes["gaps"] != "3" {
		t.Errorf("solve notes wrong: %v", doc.Spans[2].Notes)
	}
	if doc.Spans[3].Parent != 2 {
		t.Errorf("audit parent = %d, want 2 (solve)", doc.Spans[3].Parent)
	}
}

func TestServerTiming(t *testing.T) {
	tr := New("request")
	tr.Root().Start("admission").End()
	s := tr.Root().Start("solve")
	s.Start("audit").End() // grandchild: must not appear
	s.End()
	open := tr.Root().Start("write") // never ended: must not appear
	_ = open
	tr.Finish()
	st := tr.ServerTiming()
	if !strings.Contains(st, "admission;dur=") || !strings.Contains(st, "solve;dur=") {
		t.Errorf("ServerTiming missing stages: %q", st)
	}
	if strings.Contains(st, "audit") || strings.Contains(st, "write") {
		t.Errorf("ServerTiming has non-stage entries: %q", st)
	}
	if strings.Contains(st, "request") {
		t.Errorf("ServerTiming includes the root: %q", st)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New("request")
	root := tr.Root()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := root.Start("item")
				s.NoteInt("j", int64(j))
				s.End()
			}
		}()
	}
	wg.Wait()
	tr.Finish()
	doc := decode(t, tr)
	if len(doc.Spans) != 1+16*50 {
		t.Errorf("got %d spans, want %d", len(doc.Spans), 1+16*50)
	}
	if errs := doc.Verify(); len(errs) > 0 {
		t.Errorf("span tree violates the contract: %v", errs)
	}
}

func TestJSONStringEscaping(t *testing.T) {
	tr := New("request")
	s := tr.Root().Start("odd")
	s.Note("k", "a\"b\\c\nd\te\x01f")
	s.End()
	tr.Finish()
	if got := decode(t, tr).Spans[1].Notes["k"]; got != "a\"b\\c\nd\te\x01f" {
		t.Errorf("note round-trip = %q", got)
	}
}

// TestDocRoundTrip: a trace with a remote parent, nested spans and notes
// that need escaping comes back from WriteJSON equal to its Doc, and
// satisfies the tree contract.
func TestDocRoundTrip(t *testing.T) {
	tr, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", "request")
	if !ok {
		t.Fatal("ParseTraceparent rejected a valid header")
	}
	c := tr.Root().Start("cache")
	c.Note("outcome", "miss")
	s := c.Start("solve")
	s.Note("scheme", "§5.2+§7 \"quoted\" <b>&\u2028")
	s.NoteInt("gaps", 31)
	s.Start("audit").End()
	s.End()
	c.End()
	tr.Root().Start("encode").End()
	tr.Finish()

	want := tr.Doc()
	got := decode(t, tr)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip differs:\ngot  %+v\nwant %+v", got, want)
	}
	if got.RemoteParent != "00f067aa0ba902b7" || got.Spans[2].Parent != 1 || got.Spans[3].Parent != 2 {
		t.Errorf("tree shape lost: %+v", got)
	}
	if errs := got.Verify(); len(errs) > 0 {
		t.Errorf("span tree violates the contract: %v", errs)
	}
}

// noteVals are the note values FuzzTraceDoc draws from: each needs JSON
// escaping or is non-ASCII.
var noteVals = []string{"miss", "a\"b", `c\d`, "e\nf\tg", "\x01", "<&>", "§7", "\u2028", ""}

// FuzzTraceDoc: a tree built from fuzzed Start/End/Note operations
// round-trips through WriteJSON to an equal Doc, and satisfies Verify once
// every span has ended; arbitrary bytes that decode into a Doc (what
// sdemtrace reads from files) never make Verify or StageUnion panic.
func FuzzTraceDoc(f *testing.F) {
	f.Add([]byte{0, 0, 2, 3, 0, 1, 1, 1, 2, 6, 0, 0}, []byte(`{"trace_id":"0123456789abcdef0123456789abcdef","spans":[`+
		`{"name":"request","parent":-1,"span_id":"01","start_ns":0,"dur_ns":1000},`+
		`{"name":"solve","parent":0,"span_id":"02","start_ns":900,"dur_ns":500}]}`))
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 2}, []byte(`{"spans":[{"parent":3,"dur_ns":-1},{"parent":-1}]}`))
	f.Fuzz(func(t *testing.T, ops, raw []byte) {
		tr := New("request")
		spans := []Span{tr.Root()}
		open := []bool{true}
		parent := []int{-1}
		// end closes span i after its open descendants, so every child
		// ends before its parent, as the serve path's stages do.
		var end func(i int)
		end = func(i int) {
			for j := len(spans) - 1; j > i; j-- {
				if open[j] && parent[j] == i {
					end(j)
				}
			}
			spans[i].End()
			open[i] = false
		}
		for k := 0; k+1 < len(ops); k += 2 {
			i := int(ops[k+1]) % len(spans)
			switch ops[k] % 4 {
			case 0:
				if open[i] && len(spans) < 64 {
					spans = append(spans, spans[i].Start(noteVals[int(ops[k+1])%len(noteVals)]))
					open = append(open, true)
					parent = append(parent, i)
				}
			case 1:
				if open[i] {
					end(i)
				}
			case 2:
				spans[i].Note(noteVals[k%len(noteVals)], noteVals[int(ops[k+1])%len(noteVals)])
			case 3:
				spans[i].NoteInt("n", int64(ops[k+1])-128)
			}
		}
		if open[0] {
			end(0)
		}
		want := tr.Doc()
		got := decode(t, tr)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip differs:\ngot  %+v\nwant %+v", got, want)
		}
		if errs := got.Verify(); len(errs) > 0 {
			t.Fatalf("ended tree violates the contract: %v\n%+v", errs, got)
		}

		var doc Doc
		if json.Unmarshal(raw, &doc) == nil {
			doc.Verify()
			doc.StageUnion()
		}
	})
}

func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Root().Start("solve")
		s.Note("cache", "hit")
		s.End()
	}
}
