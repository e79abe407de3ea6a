package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sdem/internal/task"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	return New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
}

// commonRelease is a small feasible common-release set.
func commonRelease() task.Set {
	return task.Set{
		{ID: 0, Release: 0, Deadline: 0.05, Workload: 2e6},
		{ID: 1, Release: 0, Deadline: 0.06, Workload: 3e6},
		{ID: 2, Release: 0, Deadline: 0.08, Workload: 1e6},
	}
}

// generalSet has overlapping, non-agreeable windows: no offline optimum.
func generalSet() task.Set {
	return task.Set{
		{ID: 0, Release: 0, Deadline: 0.2, Workload: 2e6},
		{ID: 1, Release: 0.01, Deadline: 0.05, Workload: 1e6},
		{ID: 2, Release: 0.02, Deadline: 0.3, Workload: 3e6},
	}
}

// post sends a JSON body through the full handler stack.
func post(t *testing.T, s *Server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func decodeResponse(t *testing.T, w *httptest.ResponseRecorder) TaskResponse {
	t.Helper()
	var resp TaskResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, w.Body.String())
	}
	return resp
}

func TestSolveEndpoint(t *testing.T) {
	s := testServer(t)
	w := post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease(), IncludeSchedule: true})
	if w.Code != http.StatusOK {
		t.Fatalf("solve: %d\n%s", w.Code, w.Body.String())
	}
	resp := decodeResponse(t, w)
	if resp.EnergyJ <= 0 {
		t.Errorf("energy = %g, want > 0", resp.EnergyJ)
	}
	sum := resp.Components.DynamicJ + resp.Components.CoreStaticJ + resp.Components.MemoryStaticJ + resp.Components.TransitionJ
	if math.Abs(sum-resp.EnergyJ) > 1e-9*math.Max(1, resp.EnergyJ) {
		t.Errorf("components sum %g != energy %g", sum, resp.EnergyJ)
	}
	if resp.Schedule == nil {
		t.Error("include_schedule ignored")
	}
	if resp.Model != "common-release" && !strings.Contains(resp.Model, "common") {
		t.Errorf("model = %q", resp.Model)
	}
	if resp.TraceURL != "/debug/trace/1" {
		t.Errorf("trace url = %q", resp.TraceURL)
	}
}

func TestSolveRejectsGeneralModel(t *testing.T) {
	s := testServer(t)
	w := post(t, s, "/v1/solve", TaskRequest{Tasks: generalSet()})
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("general solve: %d, want 422\n%s", w.Code, w.Body.String())
	}
}

func TestSolveRejectsBadBody(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader("{not json"))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad body: %d, want 400", w.Code)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	s := testServer(t)
	for _, sched := range []string{"sdem-on", "mbkp", "mbkps", "race", "critical"} {
		w := post(t, s, "/v1/simulate", TaskRequest{Tasks: generalSet(), Scheduler: sched})
		if w.Code != http.StatusOK {
			t.Fatalf("simulate %s: %d\n%s", sched, w.Code, w.Body.String())
		}
		resp := decodeResponse(t, w)
		if resp.Scheduler != sched || resp.EnergyJ <= 0 {
			t.Errorf("simulate %s: %+v", sched, resp)
		}
	}
	w := post(t, s, "/v1/simulate", TaskRequest{Tasks: generalSet(), Scheduler: "nope"})
	if w.Code != http.StatusBadRequest {
		t.Errorf("unknown scheduler: %d, want 400", w.Code)
	}
	const want = `{
  "error": "unknown scheduler \"nope\" (want sdem-on, mbkp, mbkps, race or critical)"
}
`
	if got := w.Body.String(); got != want {
		t.Errorf("unknown scheduler body:\n got %s\nwant %s", got, want)
	}
}

func TestExecuteEndpoint(t *testing.T) {
	s := testServer(t)
	w := post(t, s, "/v1/execute", TaskRequest{
		Tasks:  commonRelease(),
		Faults: &FaultSpec{Seed: 7, Intensity: 0.8},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("execute: %d\n%s", w.Code, w.Body.String())
	}
	resp := decodeResponse(t, w)
	if resp.EnergyJ <= 0 {
		t.Errorf("energy = %g", resp.EnergyJ)
	}
	// Replayability: the same seed must give the identical outcome.
	w2 := post(t, s, "/v1/execute", TaskRequest{
		Tasks:  commonRelease(),
		Faults: &FaultSpec{Seed: 7, Intensity: 0.8},
	})
	resp2 := decodeResponse(t, w2)
	if resp.EnergyJ != resp2.EnergyJ || resp.Recoveries != resp2.Recoveries {
		t.Errorf("same seed, different outcome: %+v vs %+v", resp, resp2)
	}
	// Missing fault spec is a client error.
	if w := post(t, s, "/v1/execute", TaskRequest{Tasks: commonRelease()}); w.Code != http.StatusBadRequest {
		t.Errorf("missing faults: %d, want 400", w.Code)
	}
}

// TestBatchMatchesSingles runs a batch and checks each item reproduces
// the corresponding single-endpoint result exactly, in order.
func TestBatchMatchesSingles(t *testing.T) {
	items := []BatchItemRequest{
		{TaskRequest: TaskRequest{Tasks: commonRelease()}},
		{Op: "simulate", TaskRequest: TaskRequest{Tasks: generalSet()}},
		{Op: "simulate", TaskRequest: TaskRequest{Tasks: generalSet(), Scheduler: "mbkps"}},
		{Op: "solve", TaskRequest: TaskRequest{Tasks: generalSet()}}, // item error, not batch error
	}
	s := testServer(t)
	w := post(t, s, "/v1/batch", BatchRequest{Requests: items})
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d\n%s", w.Code, w.Body.String())
	}
	var batch BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(items) {
		t.Fatalf("results = %d, want %d", len(batch.Results), len(items))
	}

	ref := testServer(t)
	wantSolve := decodeResponse(t, post(t, ref, "/v1/solve", items[0].TaskRequest))
	wantSim := decodeResponse(t, post(t, ref, "/v1/simulate", items[1].TaskRequest))
	if got := batch.Results[0]; got.TaskResponse == nil || got.EnergyJ != wantSolve.EnergyJ {
		t.Errorf("batch solve item = %+v, want energy %g", got, wantSolve.EnergyJ)
	}
	if got := batch.Results[1]; got.TaskResponse == nil || got.EnergyJ != wantSim.EnergyJ {
		t.Errorf("batch simulate item = %+v, want energy %g", got, wantSim.EnergyJ)
	}
	if got := batch.Results[3]; got.TaskResponse != nil || got.Error == "" {
		t.Errorf("infeasible item should carry an error: %+v", got)
	}
}

// TestBatchWorkerCountIndependent checks the sweep-engine determinism
// pattern at the service layer: the same batch on a 1-worker and a
// many-worker pool produces byte-identical response bodies and identical
// merged telemetry.
func TestBatchWorkerCountIndependent(t *testing.T) {
	items := make([]BatchItemRequest, 12)
	for i := range items {
		op := "solve"
		tasks := commonRelease()
		if i%2 == 1 {
			op = "simulate"
			tasks = generalSet()
		}
		items[i] = BatchItemRequest{Op: op, TaskRequest: TaskRequest{Tasks: tasks}}
	}
	run := func(workers int) (string, string) {
		s := New(Config{Workers: workers, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		w := post(t, s, "/v1/batch", BatchRequest{Requests: items})
		if w.Code != http.StatusOK {
			t.Fatalf("batch(workers=%d): %d\n%s", workers, w.Code, w.Body.String())
		}
		var metrics bytes.Buffer
		// Compare only the deterministic families: drop wall latency, and
		// drop the cache-outcome counters — whether a repeated batch item
		// lands as "hit" (leader already finished) or "coalesced" (leader
		// still computing) depends on pool timing. The solve itself runs
		// exactly once either way, which the solver families below verify.
		for _, line := range strings.Split(get(t, s, "/metrics").Body.String(), "\n") {
			if strings.Contains(line, "sdem_serve_latency_s") || strings.Contains(line, "sdem_serve_cache") {
				continue
			}
			metrics.WriteString(line + "\n")
		}
		return w.Body.String(), metrics.String()
	}
	body1, met1 := run(1)
	body8, met8 := run(8)
	if body1 != body8 {
		t.Errorf("batch body differs between 1 and 8 workers:\n%s\n---\n%s", body1, body8)
	}
	if met1 != met8 {
		t.Errorf("merged telemetry differs between 1 and 8 workers:\n%s\n---\n%s", met1, met8)
	}
}

// seriesOf reduces an exposition to its series identities (sample lines
// with the value and any trace-ID exemplar stripped), preserving order.
func seriesOf(exposition string) []string {
	var out []string
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, " # "); i > 0 {
			line = line[:i] // exemplar suffix carries a per-run trace ID
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			out = append(out, line[:i])
		}
	}
	return out
}

// TestMetricsDeterministicSet replays a fixed request sequence on two
// fresh servers: the exposed metric set must be byte-identical, and
// every family except the wall-latency one must match value-for-value.
func TestMetricsDeterministicSet(t *testing.T) {
	sequence := func(s *Server) string {
		post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()})
		post(t, s, "/v1/simulate", TaskRequest{Tasks: generalSet()})
		post(t, s, "/v1/execute", TaskRequest{Tasks: commonRelease(), Faults: &FaultSpec{Seed: 3, Intensity: 0.5}})
		post(t, s, "/v1/solve", TaskRequest{Tasks: generalSet()}) // 422, still counted
		w := get(t, s, "/metrics")
		if w.Code != http.StatusOK {
			t.Fatalf("metrics: %d", w.Code)
		}
		if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
			t.Errorf("content type = %q", ct)
		}
		return w.Body.String()
	}
	a, b := sequence(testServer(t)), sequence(testServer(t))

	sa, sb := seriesOf(a), seriesOf(b)
	if strings.Join(sa, "\n") != strings.Join(sb, "\n") {
		t.Errorf("metric set differs across runs:\n%s\n---\n%s", strings.Join(sa, "\n"), strings.Join(sb, "\n"))
	}
	strip := func(exposition string) string {
		var keep []string
		for _, line := range strings.Split(exposition, "\n") {
			if strings.Contains(line, "sdem_serve_latency_s") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if strip(a) != strip(b) {
		t.Errorf("deterministic families differ across runs:\n%s\n---\n%s", strip(a), strip(b))
	}
	for _, want := range []string{
		"sdem_serve_requests_total{code=\"200\",route=\"/v1/solve\"} 1",
		"sdem_serve_requests_total{code=\"422\",route=\"/v1/solve\"} 1",
		"sdem_serve_inflight 0",
		"sdem_sim_energy_j_total{component=\"dynamic\",sched=\"sdem-on\"}",
		"# TYPE sdem_serve_latency_s histogram",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("exposition missing %q:\n%s", want, a)
		}
	}
}

// TestMetricsRace hammers /metrics while solve and batch requests are in
// flight; run under -race this is the exporter's concurrency guarantee.
func TestMetricsRace(t *testing.T) {
	s := testServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if w := get(t, s, "/metrics"); w.Code != http.StatusOK {
					t.Errorf("metrics: %d", w.Code)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				w := post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()})
				if w.Code != http.StatusOK {
					t.Errorf("solve: %d", w.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	if w := get(t, s, "/metrics"); !strings.Contains(w.Body.String(), `sdem_serve_requests_total{code="200",route="/v1/solve"} 20`) {
		t.Errorf("expected 20 solves in:\n%s", w.Body.String())
	}
}

func TestTraceReplay(t *testing.T) {
	s := testServer(t)
	post(t, s, "/v1/simulate", TaskRequest{Tasks: generalSet()})
	w := get(t, s, "/debug/trace/1")
	if w.Code != http.StatusOK {
		t.Fatalf("trace: %d\n%s", w.Code, w.Body.String())
	}
	if !json.Valid(w.Body.Bytes()) {
		t.Errorf("trace is not valid JSON:\n%.300s", w.Body.String())
	}
	if body := w.Body.String(); !strings.Contains(body, "memory") || !strings.Contains(body, `"ph":"X"`) {
		t.Errorf("trace lacks sim lanes/spans:\n%.300s", body)
	}
	if w := get(t, s, "/debug/trace/999"); w.Code != http.StatusNotFound {
		t.Errorf("unknown trace id: %d, want 404", w.Code)
	}
}

// TestTraceRingEviction fills the ring past capacity and checks old
// traces age out while recent ones survive.
func TestTraceRingEviction(t *testing.T) {
	s := New(Config{RingSize: 2, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	for i := 0; i < 3; i++ {
		post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()})
	}
	if w := get(t, s, "/debug/trace/1"); w.Code != http.StatusNotFound {
		t.Errorf("evicted trace still served: %d", w.Code)
	}
	if w := get(t, s, "/debug/trace/3"); w.Code != http.StatusOK {
		t.Errorf("recent trace missing: %d", w.Code)
	}
}

func TestHealthAndReady(t *testing.T) {
	s := testServer(t)
	if w := get(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz: %d", w.Code)
	}
	if w := get(t, s, "/readyz"); w.Code != http.StatusOK {
		t.Errorf("readyz: %d", w.Code)
	}
	s.SetReady(false)
	if w := get(t, s, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz: %d, want 503", w.Code)
	}
	if w := get(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz must stay live while draining: %d", w.Code)
	}
}

func TestPprofIndex(t *testing.T) {
	s := testServer(t)
	if w := get(t, s, "/debug/pprof/"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "goroutine") {
		t.Errorf("pprof index: %d", w.Code)
	}
}

// TestRunGracefulShutdown exercises the real listener path: Run serves
// until the context is cancelled, flips readiness, drains, and returns
// nil; afterwards the port no longer accepts connections.
func TestRunGracefulShutdown(t *testing.T) {
	s := testServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Run(ctx, l, s, 5*time.Second) }()

	url := fmt.Sprintf("http://%s", addr)
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get(url + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()

	data, err := json.Marshal(TaskRequest{Tasks: commonRelease()})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(data))
	if err != nil || sr.StatusCode != http.StatusOK {
		t.Fatalf("solve over TCP: %v %v", err, sr)
	}
	io.Copy(io.Discard, sr.Body)
	sr.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v, want nil on clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}
