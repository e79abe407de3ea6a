// Tests for the request-lifecycle tracing surfaces: wall-clock span
// trees, W3C traceparent propagation, Server-Timing stage breakdowns,
// latency exemplars, decision provenance, and the tracing-off
// byte-identity invariant.
package serve

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"sdem/internal/telemetry/wspan"
)

// debugDoc decodes the combined /debug/trace/{id} document.
type debugDoc struct {
	Request      string          `json:"request"`
	Route        string          `json:"route"`
	Status       int             `json:"status"`
	TraceID      string          `json:"trace_id"`
	WallTrace    *wspan.Doc      `json:"wall_trace"`
	Provenance   *Explanation    `json:"provenance"`
	VirtualTrace json.RawMessage `json:"virtual_trace"`
}

func fetchTrace(t *testing.T, s *Server, id string) debugDoc {
	t.Helper()
	w := get(t, s, "/debug/trace/"+id)
	if w.Code != http.StatusOK {
		t.Fatalf("trace %s: %d\n%s", id, w.Code, w.Body.String())
	}
	var doc debugDoc
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad trace doc: %v\n%.400s", err, w.Body.String())
	}
	return doc
}

// TestSpanTreeComplete checks that a /v1 request produces a complete
// span tree: one that satisfies wspan's tree contract (all spans ended,
// each contained in its parent), rooted at request with admission,
// decode, cache (solve nested under it), encode and write children.
func TestSpanTreeComplete(t *testing.T) {
	s := testServer(t)
	if w := post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()}); w.Code != http.StatusOK {
		t.Fatalf("solve: %d", w.Code)
	}
	doc := fetchTrace(t, s, "1")
	if doc.Request != "1" || doc.Route != "/v1/solve" || doc.Status != http.StatusOK {
		t.Errorf("doc identity = %q %q %d", doc.Request, doc.Route, doc.Status)
	}
	if doc.WallTrace == nil {
		t.Fatalf("sampled request has no wall trace:\n%+v", doc)
	}
	if doc.TraceID != doc.WallTrace.TraceID || len(doc.TraceID) != 32 {
		t.Errorf("trace id mismatch: %q vs %q", doc.TraceID, doc.WallTrace.TraceID)
	}
	if errs := doc.WallTrace.Verify(); len(errs) > 0 {
		t.Fatalf("span tree violates the contract: %v", errs)
	}
	spans := doc.WallTrace.Spans
	if len(spans) == 0 || spans[0].Name != "request" {
		t.Fatalf("no request root span: %+v", spans)
	}
	byName := map[string]wspan.DocSpan{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	for _, stage := range []string{"admission", "decode", "cache", "encode", "write"} {
		sp, ok := byName[stage]
		if !ok {
			t.Errorf("span tree missing stage %q: %+v", stage, spans)
			continue
		}
		if sp.Parent != 0 {
			t.Errorf("stage %q not a direct child of the root (parent %d)", stage, sp.Parent)
		}
	}
	solve, ok := byName["solve"]
	if !ok {
		t.Fatalf("no solve span: %+v", spans)
	}
	if spans[solve.Parent].Name != "cache" {
		t.Errorf("solve span nests under %q, want cache", spans[solve.Parent].Name)
	}
	// Decision provenance rides on the spans.
	if byName["cache"].Notes["outcome"] != "miss" {
		t.Errorf("cache span outcome = %q, want miss", byName["cache"].Notes["outcome"])
	}
	if solve.Notes["gaps"] == "" || solve.Notes["memory_sleeps"] == "" {
		t.Errorf("solve span lacks provenance notes: %+v", solve.Notes)
	}
	if doc.Provenance == nil || doc.Provenance.Scheduler != "auto" {
		t.Errorf("doc lacks provenance: %+v", doc.Provenance)
	}
	if len(doc.VirtualTrace) == 0 || !json.Valid(doc.VirtualTrace) {
		t.Errorf("doc lacks an embedded virtual trace")
	}
}

// TestServerTimingAndTraceparentHeaders checks the response carries the
// W3C traceparent of the request's trace and a Server-Timing breakdown
// of the stages that ended before the status line.
func TestServerTimingAndTraceparentHeaders(t *testing.T) {
	s := testServer(t)
	w := post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()})
	tp := w.Header().Get("Traceparent")
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") {
		t.Fatalf("traceparent header = %q", tp)
	}
	st := w.Header().Get("Server-Timing")
	for _, stage := range []string{"admission;dur=", "decode;dur=", "cache;dur=", "encode;dur="} {
		if !strings.Contains(st, stage) {
			t.Errorf("Server-Timing %q missing %q", st, stage)
		}
	}
	if strings.Contains(st, "write;dur=") {
		t.Errorf("Server-Timing %q contains the write stage, which cannot have ended before the header", st)
	}
	// The header's trace ID must resolve at /debug/trace.
	doc := fetchTrace(t, s, tp[3:35])
	if doc.Request != "1" {
		t.Errorf("trace-ID lookup resolved request %q, want 1", doc.Request)
	}
}

// TestTraceparentPropagation sends an upstream traceparent: the server
// must adopt the trace ID, remember the remote parent span, and echo the
// trace ID in its own traceparent response header.
func TestTraceparentPropagation(t *testing.T) {
	const upstream = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	s := testServer(t)
	w := postHdr(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()},
		map[string]string{"traceparent": upstream})
	if w.Code != http.StatusOK {
		t.Fatalf("solve: %d", w.Code)
	}
	tp := w.Header().Get("Traceparent")
	if !strings.HasPrefix(tp, "00-4bf92f3577b34da6a3ce929d0e0e4736-") {
		t.Errorf("response traceparent %q did not adopt the upstream trace ID", tp)
	}
	doc := fetchTrace(t, s, "1")
	if doc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %q, want the upstream one", doc.TraceID)
	}
	if doc.WallTrace.RemoteParent != "00f067aa0ba902b7" {
		t.Errorf("remote parent = %q", doc.WallTrace.RemoteParent)
	}
	// A garbled header degrades to a fresh local trace, never an error.
	w = postHdr(t, s, "/v1/solve", TaskRequest{Tasks: generalSet()},
		map[string]string{"traceparent": "00-zzzz-bad-01"})
	if w.Code == http.StatusOK || w.Code == http.StatusUnprocessableEntity {
		if doc := fetchTrace(t, s, "2"); doc.TraceID == "4bf92f3577b34da6a3ce929d0e0e4736" || doc.TraceID == "" {
			t.Errorf("garbled traceparent: trace id = %q, want a fresh local one", doc.TraceID)
		}
	} else {
		t.Errorf("garbled traceparent broke the request: %d", w.Code)
	}
}

// TestExemplarsResolve checks the OpenMetrics latency buckets carry
// trace_id exemplars and that those IDs resolve at /debug/trace.
func TestExemplarsResolve(t *testing.T) {
	s := testServer(t)
	post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()})
	m := get(t, s, "/metrics").Body.String()
	re := regexp.MustCompile(`sdem_serve_latency_s_bucket\{[^}]*\} \d+ # \{trace_id="([0-9a-f]{32})"\}`)
	match := re.FindStringSubmatch(m)
	if match == nil {
		t.Fatalf("no latency exemplar in exposition:\n%s", m)
	}
	if doc := fetchTrace(t, s, match[1]); doc.TraceID != match[1] {
		t.Errorf("exemplar trace %s resolved to doc %q", match[1], doc.TraceID)
	}
}

// TestTracingOffByteIdentity is the CI-diffed invariant: with wall
// tracing disabled, response bodies are byte-identical to the sampled
// server's, the trace headers vanish, and the latency family carries no
// exemplars.
func TestTracingOffByteIdentity(t *testing.T) {
	on := testServer(t)
	off := New(Config{TraceSample: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	reqs := []struct {
		path string
		body any
	}{
		{"/v1/solve", TaskRequest{Tasks: commonRelease(), IncludeSchedule: true}},
		{"/v1/simulate", TaskRequest{Tasks: generalSet()}},
		{"/v1/execute", TaskRequest{Tasks: commonRelease(), Faults: &FaultSpec{Seed: 3, Intensity: 0.5}}},
		{"/v1/explain", TaskRequest{Tasks: commonRelease()}},
	}
	for _, rq := range reqs {
		won, woff := post(t, on, rq.path, rq.body), post(t, off, rq.path, rq.body)
		if won.Body.String() != woff.Body.String() {
			t.Errorf("%s body differs with tracing on/off:\n%s\n---\n%s", rq.path, won.Body.String(), woff.Body.String())
		}
		if h := woff.Header().Get("Traceparent"); h != "" {
			t.Errorf("%s: tracing-off response carries traceparent %q", rq.path, h)
		}
		if h := woff.Header().Get("Server-Timing"); h != "" {
			t.Errorf("%s: tracing-off response carries Server-Timing %q", rq.path, h)
		}
	}
	if m := get(t, off, "/metrics").Body.String(); strings.Contains(m, "trace_id") {
		t.Errorf("tracing-off exposition carries exemplars:\n%s", m)
	}
	// The unsampled trace doc still replays the virtual trace, minus the
	// wall tree.
	w := get(t, off, "/debug/trace/1")
	if w.Code != http.StatusOK {
		t.Fatalf("unsampled trace: %d", w.Code)
	}
	var doc debugDoc
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.WallTrace != nil || doc.TraceID != "" {
		t.Errorf("unsampled doc has a wall trace: %+v", doc)
	}
	if len(doc.VirtualTrace) == 0 {
		t.Errorf("unsampled doc lost the virtual trace")
	}
	if w := get(t, off, "/debug/trace/1?format=wall"); w.Code != http.StatusNotFound {
		t.Errorf("format=wall on unsampled request: %d, want 404", w.Code)
	}
}

// TestTraceSampling checks TraceSample=k traces every k-th request only.
func TestTraceSampling(t *testing.T) {
	s := New(Config{TraceSample: 2, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	w1 := post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()}) // id 1: unsampled
	w2 := post(t, s, "/v1/solve", TaskRequest{Tasks: generalSet()})    // id 2: sampled
	if h := w1.Header().Get("Traceparent"); h != "" {
		t.Errorf("request 1 sampled under TraceSample=2: %q", h)
	}
	if h := w2.Header().Get("Traceparent"); h == "" {
		t.Error("request 2 not sampled under TraceSample=2")
	}
}

// TestExplainEndpoint checks /v1/explain surfaces the paper's per-gap
// decisions: break-even thresholds, margins, and race/sleep/crawl
// classifications consistent with their own summary.
func TestExplainEndpoint(t *testing.T) {
	s := testServer(t)
	w := post(t, s, "/v1/explain", TaskRequest{Tasks: commonRelease()})
	if w.Code != http.StatusOK {
		t.Fatalf("explain: %d\n%s", w.Code, w.Body.String())
	}
	var resp ExplainResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	ex := resp.Explanation
	if ex == nil {
		t.Fatal("no explanation")
	}
	if ex.Scheduler != "auto" || resp.Scheduler != "auto" {
		t.Errorf("scheduler = %q/%q", ex.Scheduler, resp.Scheduler)
	}
	// The default platform's core break-even is 0 (sleeping always pays);
	// the memory threshold and critical speed must be real.
	if ex.CoreBreakEvenS < 0 || ex.MemoryBreakEvenS <= 0 || ex.CriticalSpeed <= 0 {
		t.Errorf("thresholds not surfaced: %+v", ex)
	}
	if ex.Summary.Segments == 0 || ex.Summary.Segments != ex.Summary.Races+ex.Summary.Crawls+ex.Summary.Dvs {
		t.Errorf("segment classification inconsistent: %+v", ex.Summary)
	}
	if ex.Summary.Gaps != ex.Summary.Sleeps+ex.Summary.Idles {
		t.Errorf("gap classification inconsistent: %+v", ex.Summary)
	}
	if !ex.Truncated && len(ex.Gaps) != ex.Summary.Gaps {
		t.Errorf("gap detail (%d) disagrees with summary (%d)", len(ex.Gaps), ex.Summary.Gaps)
	}
	for _, g := range ex.Gaps {
		if g.Decision != "sleep" && g.Decision != "idle" {
			t.Errorf("gap decision %q", g.Decision)
		}
		if got := g.LengthS - g.BreakEvenS; abs(got-g.MarginS) > 1e-12 {
			t.Errorf("gap margin %g != len-xi %g", g.MarginS, got)
		}
		if g.Decision == "sleep" && g.NetGainJ < 0 {
			t.Errorf("sleeping gap with negative gain: %+v", g)
		}
	}
	for _, sg := range ex.Speeds {
		if sg.Decision != "race" && sg.Decision != "crawl" && sg.Decision != "dvs" {
			t.Errorf("segment decision %q", sg.Decision)
		}
	}

	// An online scheduler explains through the same endpoint.
	w = post(t, s, "/v1/explain", TaskRequest{Tasks: generalSet(), Scheduler: "sdem-on"})
	if w.Code != http.StatusOK {
		t.Fatalf("explain sdem-on: %d\n%s", w.Code, w.Body.String())
	}
	var on ExplainResponse
	if err := json.Unmarshal(w.Body.Bytes(), &on); err != nil {
		t.Fatal(err)
	}
	if on.Explanation == nil || on.Explanation.Scheduler != "sdem-on" {
		t.Errorf("online explanation = %+v", on.Explanation)
	}

	// Explains share the schedule cache with solves: explaining the same
	// set again is a hit.
	post(t, s, "/v1/explain", TaskRequest{Tasks: commonRelease()})
	if m := get(t, s, "/metrics").Body.String(); !strings.Contains(m, `sdem_serve_cache_total{op="solve",result="hit"} 1`) {
		t.Errorf("repeated explain did not hit the cache:\n%s", m)
	}
}

// TestBatchSpanTree checks batch items appear as parallel item spans
// under the batch request root, in a tree that satisfies the contract
// although the items overlap.
func TestBatchSpanTree(t *testing.T) {
	s := testServer(t)
	items := []BatchItemRequest{
		{TaskRequest: TaskRequest{Tasks: commonRelease()}},
		{Op: "simulate", TaskRequest: TaskRequest{Tasks: generalSet()}},
	}
	if w := post(t, s, "/v1/batch", BatchRequest{Requests: items}); w.Code != http.StatusOK {
		t.Fatalf("batch: %d", w.Code)
	}
	doc := fetchTrace(t, s, "1")
	if doc.WallTrace == nil {
		t.Fatal("no wall trace")
	}
	if errs := doc.WallTrace.Verify(); len(errs) > 0 {
		t.Fatalf("span tree violates the contract: %v", errs)
	}
	var itemSpans int
	for _, sp := range doc.WallTrace.Spans {
		if sp.Name == "item" {
			itemSpans++
			if sp.Parent != 0 {
				t.Errorf("item span parent = %d, want root", sp.Parent)
			}
		}
	}
	if itemSpans != len(items) {
		t.Errorf("item spans = %d, want %d", itemSpans, len(items))
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
