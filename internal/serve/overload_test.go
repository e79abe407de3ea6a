// Overload and degradation tests: admission control, load shedding,
// deadline budgets, panic containment, the coalescing schedule cache,
// chaos replay, and graceful drain under load. These are the serving
// layer's robustness contract — the counterpart of the solver's
// determinism contract.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdem/internal/faults"
	"sdem/internal/task"
)

func configuredServer(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg)
}

// postHdr is post with extra request headers.
func postHdr(t *testing.T, s *Server, path string, body any, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// agreeableSet builds a large feasible agreeable task set — big enough
// that its DP crosses many cancellation checkpoints.
func agreeableSet(n int) task.Set {
	ts := make(task.Set, n)
	for i := range ts {
		r := float64(i) * 1e-4
		ts[i] = task.Task{ID: i, Release: r, Deadline: r + 0.05, Workload: 1e4}
	}
	return ts
}

// stampStripped removes the two per-request fields (request ID, trace
// URL) a cached response legitimately differs in.
func stampStripped(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	delete(m, "request")
	delete(m, "trace_url")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestBudgetHeaderValidation(t *testing.T) {
	s := testServer(t)
	for _, bad := range []string{"abc", "-5", "0", "1.5"} {
		w := postHdr(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()}, map[string]string{"X-Budget-Ms": bad})
		if w.Code != http.StatusBadRequest {
			t.Errorf("X-Budget-Ms=%q: %d, want 400", bad, w.Code)
		}
	}
	// A generous budget is capped, not rejected.
	w := postHdr(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()}, map[string]string{"X-Budget-Ms": "999999999"})
	if w.Code != http.StatusOK {
		t.Errorf("huge budget: %d, want 200 (capped at MaxBudget)\n%s", w.Code, w.Body.String())
	}
}

// TestShedQueueFull drives the route's gate to capacity and checks the
// overflow request sheds instantly with 429 + Retry-After and the
// queue_full reason — without ever reaching a handler.
func TestShedQueueFull(t *testing.T) {
	s := configuredServer(t, func(c *Config) { c.Concurrency = 1; c.QueueDepth = 1 })
	g := s.gates["/v1/solve"]
	// Fill the gate to capacity (1 executing + 1 queued) from the side.
	g.admitted.Store(int64(g.concurrency + g.depth))
	defer g.admitted.Store(0)

	w := post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: %d, want 429\n%s", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Error("shed response missing Retry-After")
	}
	if !strings.Contains(w.Body.String(), shedQueueFull) {
		t.Errorf("shed body lacks reason: %s", w.Body.String())
	}
	if m := get(t, s, "/metrics").Body.String(); !strings.Contains(m, `sdem_serve_shed_total{reason="queue_full",route="/v1/solve"} 1`) {
		t.Errorf("shed counter missing:\n%s", m)
	}
}

// TestShedDeadline seeds the gate with a backlog whose estimated drain
// time dwarfs the request budget: the admission test must refuse
// up-front (reason deadline) with a Retry-After reflecting the backlog.
func TestShedDeadline(t *testing.T) {
	s := configuredServer(t, func(c *Config) { c.Concurrency = 1; c.QueueDepth = 64 })
	g := s.gates["/v1/solve"]
	g.ewmaNs.Store(int64(time.Hour)) // each queued request "costs" an hour
	g.admitted.Store(1)              // one executing, so this request must wait
	defer func() { g.admitted.Store(0); g.ewmaNs.Store(0) }()

	w := post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("doomed request: %d, want 429\n%s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), shedDeadline) {
		t.Errorf("shed body lacks reason: %s", w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra != "3600" {
		t.Errorf("Retry-After = %q, want %q (one EWMA hour)", ra, "3600")
	}
}

// TestShedTimeout occupies the route's only slot so an admitted request
// queues until its budget runs out, then sheds with reason timeout.
func TestShedTimeout(t *testing.T) {
	s := configuredServer(t, func(c *Config) { c.Concurrency = 1; c.QueueDepth = 4 })
	g := s.gates["/v1/solve"]
	g.slots <- struct{}{} // a phantom request holds the slot forever
	defer func() { <-g.slots }()

	w := postHdr(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()}, map[string]string{"X-Budget-Ms": "30"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("queued-out request: %d, want 429\n%s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), shedTimeout) {
		t.Errorf("shed body lacks reason: %s", w.Body.String())
	}
}

// TestBudgetExpiryMidSolve expires a 1 ms budget after admission and
// before the solver's first cancellation checkpoint, whatever the
// solver's speed: a chaos latency fault sleeps past the budget between
// admission and the handler. The checkpoint must abandon the solve and
// the request must surface as a mid-flight shed — 429 with reason
// budget, never a 500 and never a torn response. (That the agreeable DP
// polls between blocks is agreeable's TestSolveCtxPollsEveryBlock.)
func TestBudgetExpiryMidSolve(t *testing.T) {
	plan := faults.NewServePlan(faults.ServeConfig{Rate: 1, MaxDelay: 0.05}, 1)
	if f, ok := plan.At(1); !ok || f.Kind != faults.ServeLatency || f.Delay <= 0.002 {
		t.Fatalf("chaos plan's first fault %+v (ok %v) is not a latency fault past the 1 ms budget", f, ok)
	}
	s := configuredServer(t, func(c *Config) { c.Chaos = &plan })
	w := postHdr(t, s, "/v1/solve", TaskRequest{Tasks: agreeableSet(40)}, map[string]string{"X-Budget-Ms": "1"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("expired solve: %d, want 429\n%s", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Error("mid-flight shed missing Retry-After")
	}
	if m := get(t, s, "/metrics").Body.String(); !strings.Contains(m, `sdem_serve_shed_total{reason="budget",route="/v1/solve"} 1`) {
		t.Errorf("budget shed counter missing:\n%s", m)
	}
	// The same set with a sane budget must still solve: nothing sticky.
	if w := postHdr(t, s, "/v1/solve", TaskRequest{Tasks: agreeableSet(40)}, map[string]string{"X-Budget-Ms": "25000"}); w.Code != http.StatusOK {
		t.Errorf("follow-up solve: %d\n%s", w.Code, w.Body.String())
	}
}

// TestPanicBecomes500 injects panics via the chaos plan: every request
// must come back as a JSON 500 with the panic counter bumped, and the
// server must keep serving afterwards.
func TestPanicBecomes500(t *testing.T) {
	plan := faults.NewServePlan(faults.ServeConfig{Rate: 1, Kinds: []faults.ServeKind{faults.ServePanic}}, 1)
	s := configuredServer(t, func(c *Config) { c.Chaos = &plan })
	for i := 0; i < 2; i++ {
		w := post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()})
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("panicking request %d: %d, want 500\n%s", i, w.Code, w.Body.String())
		}
		var resp errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || !strings.Contains(resp.Error, "panicked") {
			t.Errorf("panic response not a clean JSON error: %v %q", err, w.Body.String())
		}
	}
	m := get(t, s, "/metrics").Body.String()
	if !strings.Contains(m, `sdem_serve_panics_total{route="/v1/solve"} 2`) {
		t.Errorf("panic counter missing:\n%s", m)
	}
	if w := get(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("server unhealthy after panics: %d", w.Code)
	}
}

// TestChaosReplayDeterministic replays the same request sequence on two
// servers with the same chaos plan: the injected-fault pattern (and so
// the status-code sequence) must be identical — same seed, same storm.
func TestChaosReplayDeterministic(t *testing.T) {
	run := func(seed int64) []int {
		plan := faults.NewServePlan(faults.ServeConfig{Rate: 0.5, Kinds: []faults.ServeKind{faults.ServeError}}, seed)
		s := configuredServer(t, func(c *Config) { c.Chaos = &plan })
		codes := make([]int, 0, 20)
		for i := 0; i < 20; i++ {
			codes = append(codes, post(t, s, "/v1/simulate", TaskRequest{Tasks: generalSet()}).Code)
		}
		return codes
	}
	a, b := run(42), run(42)
	var faulted int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: %d vs %d under the same chaos seed", i, a[i], b[i])
		}
		if a[i] == http.StatusInternalServerError {
			faulted++
		}
	}
	if faulted == 0 || faulted == len(a) {
		t.Errorf("chaos at rate 0.5 faulted %d/%d requests; plan looks degenerate", faulted, len(a))
	}
}

// TestCacheHitByteIdentity solves the same task set twice: the second
// response must be byte-identical to the first except the request ID
// and trace URL, and the cache counters must show one miss, one hit.
func TestCacheHitByteIdentity(t *testing.T) {
	s := testServer(t)
	w1 := post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease(), IncludeSchedule: true})
	w2 := post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease(), IncludeSchedule: true})
	if w1.Code != http.StatusOK || w2.Code != http.StatusOK {
		t.Fatalf("solves: %d, %d", w1.Code, w2.Code)
	}
	// Strict byte identity modulo the stamp: rewriting the two stamp
	// fields of response 1 must reproduce response 2 exactly.
	rewritten := strings.Replace(w1.Body.String(), `"request": "1"`, `"request": "2"`, 1)
	rewritten = strings.Replace(rewritten, `"trace_url": "/debug/trace/1"`, `"trace_url": "/debug/trace/2"`, 1)
	if rewritten != w2.Body.String() {
		t.Errorf("cached response not byte-identical:\n%s\n---\n%s", w1.Body.String(), w2.Body.String())
	}
	m := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		`sdem_serve_cache_total{op="solve",result="miss"} 1`,
		`sdem_serve_cache_total{op="solve",result="hit"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestCachePermutationInvariant sends the same task multiset in a
// different JSON order: the canonical key must match (a hit, not a
// second solve) and the response must be identical modulo the stamp.
func TestCachePermutationInvariant(t *testing.T) {
	tasks := commonRelease()
	reversed := make(task.Set, len(tasks))
	for i, tk := range tasks {
		reversed[len(tasks)-1-i] = tk
	}
	s := testServer(t)
	w1 := post(t, s, "/v1/solve", TaskRequest{Tasks: tasks, IncludeSchedule: true})
	w2 := post(t, s, "/v1/solve", TaskRequest{Tasks: reversed, IncludeSchedule: true})
	if w1.Code != http.StatusOK || w2.Code != http.StatusOK {
		t.Fatalf("solves: %d, %d", w1.Code, w2.Code)
	}
	if got, want := stampStripped(t, w2.Body.Bytes()), stampStripped(t, w1.Body.Bytes()); got != want {
		t.Errorf("permuted task set produced a different response:\n%s\n---\n%s", want, got)
	}
	if m := get(t, s, "/metrics").Body.String(); !strings.Contains(m, `sdem_serve_cache_total{op="solve",result="hit"} 1`) {
		t.Errorf("permuted request did not hit the cache:\n%s", m)
	}
}

// TestPermutationInvariantUncached is the semantic ground truth under
// the cache: with caching disabled, solving or simulating a permuted
// task set must still produce the identical response. If this breaks,
// serving cached responses for permuted sets would be a lie.
func TestPermutationInvariantUncached(t *testing.T) {
	reverse := func(ts task.Set) task.Set {
		out := make(task.Set, len(ts))
		for i, tk := range ts {
			out[len(ts)-1-i] = tk
		}
		return out
	}
	s := configuredServer(t, func(c *Config) { c.CacheSize = -1 })
	for _, tc := range []struct {
		path  string
		tasks task.Set
	}{
		{"/v1/solve", commonRelease()}, // solve needs a solvable model
		{"/v1/simulate", generalSet()},
	} {
		var bodies []string
		for _, ts := range []task.Set{tc.tasks, reverse(tc.tasks)} {
			w := post(t, s, tc.path, TaskRequest{Tasks: ts, IncludeSchedule: true})
			if w.Code != http.StatusOK {
				t.Fatalf("%s: %d\n%s", tc.path, w.Code, w.Body.String())
			}
			bodies = append(bodies, stampStripped(t, w.Body.Bytes()))
		}
		if bodies[0] != bodies[1] {
			t.Errorf("%s: permuted input changed the uncached response:\n%s\n---\n%s", tc.path, bodies[0], bodies[1])
		}
	}
}

// TestCacheDisabled checks CacheSize < 0 really bypasses the cache: two
// identical solves, no cache metrics at all.
func TestCacheDisabled(t *testing.T) {
	s := configuredServer(t, func(c *Config) { c.CacheSize = -1 })
	post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()})
	post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()})
	if m := get(t, s, "/metrics").Body.String(); strings.Contains(m, "sdem_serve_cache") {
		t.Errorf("disabled cache still recorded outcomes:\n%s", m)
	}
}

// TestBodyTooLarge413 posts past MaxBody and expects the dedicated 413
// with the limit spelled out, not a generic 400.
func TestBodyTooLarge413(t *testing.T) {
	s := configuredServer(t, func(c *Config) { c.MaxBody = 64 })
	w := post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413\n%s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "64-byte") {
		t.Errorf("413 body does not name the limit: %s", w.Body.String())
	}
}

// TestBodyLimitWholeBody pins the 413 contract of the whole-body read:
// the limit applies to the body, not to its first JSON value. A body
// whose value ends inside MaxBody but whose trailing bytes cross it is
// 413; trailing bytes inside the limit are ignored, as json.Decoder
// ignores them; a body of exactly MaxBody bytes is accepted.
func TestBodyLimitWholeBody(t *testing.T) {
	const limit = 256
	s := configuredServer(t, func(c *Config) { c.MaxBody = limit })
	value := `{"tasks":[{"ID":0,"Deadline":0.05,"Workload":2e6}]}`
	send := func(body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)))
		return w
	}
	plain := send(value)
	if plain.Code != http.StatusOK {
		t.Fatalf("plain body: %d\n%s", plain.Code, plain.Body)
	}
	for _, c := range []struct {
		name string
		body string
		code int
	}{
		{"value inside, body over", value + strings.Repeat(" ", limit+1-len(value)), http.StatusRequestEntityTooLarge},
		{"trailing garbage over", value + strings.Repeat("x", limit), http.StatusRequestEntityTooLarge},
		{"exactly at the limit", value + strings.Repeat(" ", limit-len(value)), http.StatusOK},
		{"trailing bytes inside", value + " trailing bytes", http.StatusOK},
	} {
		w := send(c.body)
		if w.Code != c.code {
			t.Errorf("%s: %d, want %d\n%s", c.name, w.Code, c.code, w.Body)
			continue
		}
		if c.code == http.StatusOK && stampStripped(t, w.Body.Bytes()) != stampStripped(t, plain.Body.Bytes()) {
			t.Errorf("%s: response differs from the plain body's:\n%s\nvs\n%s", c.name, w.Body, plain.Body)
		}
	}
}

// TestDrainMidBatch is the graceful-drain contract under load: shutdown
// arriving while a batch is mid-flight must never tear the response —
// the client still receives the complete JSON body, and Run returns nil.
func TestDrainMidBatch(t *testing.T) {
	s := configuredServer(t, func(c *Config) {
		c.Workers = 1
		c.DefaultBudget = 25 * time.Second // the batch must finish, not shed
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Run(ctx, l, s, 30*time.Second) }()
	url := "http://" + l.Addr().String()
	waitHealthy(t, url)

	// A batch heavy enough to still be computing when shutdown lands: an
	// 80-task agreeable DP (~0.3 s), which the six identical items share
	// through the schedule cache.
	items := make([]BatchItemRequest, 6)
	for i := range items {
		items[i] = BatchItemRequest{TaskRequest: TaskRequest{Tasks: agreeableSet(80)}}
	}
	data, err := json.Marshal(BatchRequest{Requests: items})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		code int
		body []byte
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(data))
		if err != nil {
			resc <- result{err: err}
			return
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			err = rerr
		}
		resc <- result{code: resp.StatusCode, body: body, err: err}
	}()

	time.Sleep(100 * time.Millisecond) // let the batch start computing
	cancel()                           // SIGTERM-equivalent mid-batch

	res := <-resc
	if res.err != nil {
		t.Fatalf("batch torn by shutdown: %v", res.err)
	}
	if res.code != http.StatusOK {
		t.Fatalf("batch during drain: %d\n%s", res.code, res.body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(res.body, &batch); err != nil {
		t.Fatalf("batch response not complete JSON after drain: %v", err)
	}
	if len(batch.Results) != len(items) {
		t.Errorf("drained batch returned %d results, want %d", len(batch.Results), len(items))
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v, want nil on clean drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after drain")
	}
}

// TestSlowClientReadTimeout dribbles a request body slower than the
// configured ReadTimeout: the server must cut the connection instead of
// letting the slow client pin it.
func TestSlowClientReadTimeout(t *testing.T) {
	s := configuredServer(t, func(c *Config) { c.ReadTimeout = 300 * time.Millisecond })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- Run(ctx, l, s, 5*time.Second) }()
	waitHealthy(t, "http://"+l.Addr().String())

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	header := "POST /v1/solve HTTP/1.1\r\nHost: sdemd\r\nContent-Type: application/json\r\nContent-Length: 100000\r\n\r\n"
	if _, err := conn.Write([]byte(header)); err != nil {
		t.Fatal(err)
	}
	// Dribble far slower than ReadTimeout and wait for the cutoff.
	deadline := time.After(5 * time.Second)
	cut := make(chan struct{})
	go func() {
		for {
			if _, err := conn.Write([]byte("{")); err != nil {
				close(cut)
				return
			}
			time.Sleep(100 * time.Millisecond)
		}
	}()
	select {
	case <-cut:
	case <-deadline:
		t.Fatal("server never cut off the slow client")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v", err)
	}
}

// waitHealthy polls /healthz until the Run goroutine is serving.
func waitHealthy(t *testing.T, url string) {
	t.Helper()
	for i := 0; i < 200; i++ {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server never came up")
}
