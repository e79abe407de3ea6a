// Tests for the raw-body alias index in front of the canonical cache: a
// body is aliased only once it repeats, an alias never outlives its
// entry or points at a failure, the alias is keyed on the exact bytes,
// and a raw hit answers, records and traces exactly as a canonical hit.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"sdem/internal/encode"
	"sdem/internal/faults"
	"sdem/internal/task"
	"sdem/internal/telemetry/wspan"
)

// postRaw sends body bytes verbatim through the full handler stack.
func postRaw(s *Server, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

var stampRE = regexp.MustCompile(`"(request|trace_url)": "(/debug/trace/)?[0-9]+"`)

// unstamped blanks a response body's request ID and trace URL.
func unstamped(body []byte) string {
	return stampRE.ReplaceAllString(string(body), `"$1": ""`)
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// cacheCount reads one sdem.serve.cache counter from the root recorder
// (0 when absent).
func cacheCount(t *testing.T, s *Server, op string, outcome cacheOutcome) int64 {
	t.Helper()
	return s.Telemetry().CounterValue(metricCache, cacheLabel(op, outcome))
}

// TestRawAliasOnRepeat checks that the first request leaves no alias, the
// second (a canonical hit) adds one, the third is answered by it, and all
// three bodies are byte-identical but for the stamp.
func TestRawAliasOnRepeat(t *testing.T) {
	for _, tc := range []struct {
		path, op string
		tasks    task.Set
	}{
		{"/v1/solve", "solve", commonRelease()},
		{"/v1/simulate", "simulate", generalSet()},
	} {
		s := testServer(t)
		body := mustJSON(t, TaskRequest{Tasks: tc.tasks, IncludeSchedule: true})
		var got []string
		for i, wantKeys := range []int64{0, 1, 1} {
			w := postRaw(s, tc.path, body, nil)
			if w.Code != http.StatusOK {
				t.Fatalf("%s #%d: %d\n%s", tc.path, i+1, w.Code, w.Body)
			}
			if k := s.raw.keys.Load(); k != wantKeys {
				t.Errorf("%s after request %d: %d raw aliases, want %d", tc.path, i+1, k, wantKeys)
			}
			got = append(got, w.Body.String())
		}
		for i := 1; i < len(got); i++ {
			id := string(rune('1' + i))
			want := strings.Replace(got[0], `"request": "1"`, `"request": "`+id+`"`, 1)
			want = strings.Replace(want, `"trace_url": "/debug/trace/1"`, `"trace_url": "/debug/trace/`+id+`"`, 1)
			if got[i] != want {
				t.Errorf("%s: response %d differs from the solve beyond the stamp:\n%s\n---\n%s", tc.path, i+1, got[0], got[i])
			}
		}
		if m, h := cacheCount(t, s, tc.op, cacheMiss), cacheCount(t, s, tc.op, cacheHit); m != 1 || h != 2 {
			t.Errorf("%s: cache counters miss=%d hit=%d, want 1 and 2", tc.path, m, h)
		}
		// The raw index is per route: the other route's lookup misses.
		other := "simulate"
		if tc.op == other {
			other = "solve"
		}
		if s.raw.get(other, body) != nil {
			t.Errorf("%s: alias answers on the %s route too", tc.path, other)
		}
	}
}

// sameShardSet finds a common-release set whose canonical solve key
// shares a cache shard with key, so solving it evicts key's entry from a
// one-per-shard cache.
func sameShardSet(t *testing.T, s *Server, key string) task.Set {
	t.Helper()
	want := s.cache.shard(key)
	for seed := int64(1); seed < 1000; seed++ {
		ts := syntheticSet(t, 4, seed, true)
		if s.cache.shard(encode.CanonicalKey("solve", "auto", false, ts, s.cfg.System)) == want {
			return ts
		}
	}
	t.Fatal("no set shares the shard")
	return nil
}

// TestRawAliasMissesOnceEvicted evicts an aliased entry from a cache of
// one entry per shard: the alias must miss, the request must re-solve,
// and the re-solved answer must equal the first.
func TestRawAliasMissesOnceEvicted(t *testing.T) {
	s := configuredServer(t, func(c *Config) { c.CacheSize = 1 })
	tasks := commonRelease()
	body := mustJSON(t, TaskRequest{Tasks: tasks})
	first := postRaw(s, "/v1/solve", body, nil)
	postRaw(s, "/v1/solve", body, nil)
	if s.raw.get("solve", body) == nil {
		t.Fatal("repeated body left no alias")
	}
	other := sameShardSet(t, s, encode.CanonicalKey("solve", "auto", false, tasks, s.cfg.System))
	if w := post(t, s, "/v1/solve", TaskRequest{Tasks: other}); w.Code != http.StatusOK {
		t.Fatalf("evicting solve: %d\n%s", w.Code, w.Body)
	}
	if e := s.raw.get("solve", body); e != nil {
		t.Fatal("alias to an evicted entry still hits")
	}
	again := postRaw(s, "/v1/solve", body, nil)
	if again.Code != http.StatusOK || unstamped(again.Body.Bytes()) != unstamped(first.Body.Bytes()) {
		t.Errorf("re-solve after eviction differs:\n%s\n---\n%s", first.Body, again.Body)
	}
	if m := cacheCount(t, s, "solve", cacheMiss); m != 3 {
		t.Errorf("cache misses = %d, want 3 (the body, the evicting set, the body again)", m)
	}
	// The third sight of the body is a canonical hit again and re-aliases.
	postRaw(s, "/v1/solve", body, nil)
	if s.raw.get("solve", body) == nil {
		t.Error("body not re-aliased after its entry was rebuilt")
	}
}

// TestRawNoAliasOnFailure repeats a 422 body and a budget-cancelled body:
// neither may leave an alias or an entry behind.
func TestRawNoAliasOnFailure(t *testing.T) {
	s := testServer(t)
	bad := mustJSON(t, TaskRequest{Tasks: generalSet()}) // no offline optimum
	for i := 0; i < 3; i++ {
		if w := postRaw(s, "/v1/solve", bad, nil); w.Code != http.StatusUnprocessableEntity {
			t.Fatalf("general set #%d: %d, want 422", i+1, w.Code)
		}
	}
	if k := s.raw.keys.Load(); k != 0 {
		t.Errorf("422 body left %d aliases", k)
	}

	// Every request of this plan sleeps past a 1 ms budget before its
	// handler runs, so each solve is cancelled at its first checkpoint.
	var plan faults.ServePlan
	for seed := int64(1); ; seed++ {
		plan = faults.NewServePlan(faults.ServeConfig{Rate: 1, MaxDelay: 0.05, Kinds: []faults.ServeKind{faults.ServeLatency}}, seed)
		ok := true
		for id := int64(1); id <= 3; id++ {
			if f, hit := plan.At(id); !hit || f.Delay <= 0.002 {
				ok = false
			}
		}
		if ok {
			break
		}
	}
	s = configuredServer(t, func(c *Config) { c.Chaos = &plan })
	slow := mustJSON(t, TaskRequest{Tasks: agreeableSet(40)})
	for i := 0; i < 3; i++ {
		if w := postRaw(s, "/v1/solve", slow, map[string]string{"X-Budget-Ms": "1"}); w.Code != http.StatusTooManyRequests {
			t.Fatalf("cancelled solve #%d: %d, want 429\n%s", i+1, w.Code, w.Body)
		}
	}
	if k := s.raw.keys.Load(); k != 0 {
		t.Errorf("cancelled body left %d aliases", k)
	}
	for _, sh := range s.cache.shards {
		if len(sh.entries) != 0 {
			t.Errorf("cancelled solve left %d entries", len(sh.entries))
		}
	}
}

// TestRawKeyIsExactBytes sends one body and the same body with trailing
// whitespace: they share the canonical entry but not a raw key.
func TestRawKeyIsExactBytes(t *testing.T) {
	s := testServer(t)
	body := mustJSON(t, TaskRequest{Tasks: commonRelease()})
	spaced := append(bytes.Clone(body), " \n"...)
	for _, b := range [][]byte{body, body, spaced} {
		if w := postRaw(s, "/v1/solve", b, nil); w.Code != http.StatusOK {
			t.Fatalf("solve: %d\n%s", w.Code, w.Body)
		}
	}
	a, b := s.raw.get("solve", body), s.raw.get("solve", spaced)
	if a == nil || b == nil {
		t.Fatalf("aliases: %v %v, want both", a, b)
	}
	if a != b {
		t.Error("the two spellings alias different entries")
	}
	if k := s.raw.keys.Load(); k != 2 {
		t.Errorf("%d raw keys, want 2", k)
	}
	if m := cacheCount(t, s, "solve", cacheMiss); m != 1 {
		t.Errorf("cache misses = %d, want 1", m)
	}
}

// logCapture collects the request log's completion lines by request ID.
type logCapture struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logCapture) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// attrs returns request id's log attributes without the ones that are
// per-request by nature (id, wall latency, trace ID, timestamp).
func (l *logCapture) attrs(t *testing.T, id string) map[string]any {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range strings.Split(l.buf.String(), "\n") {
		var m map[string]any
		if json.Unmarshal([]byte(line), &m) != nil || m["id"] != id {
			continue
		}
		for _, k := range []string{"id", "latency_ms", "trace_id", "time"} {
			delete(m, k)
		}
		return m
	}
	t.Fatalf("no log line for request %s", id)
	return nil
}

// TestRawHitRecordsLikeCanonicalHit compares request 2 (a canonical hit)
// with request 3 (a raw hit on the same body): the child recorder's
// metrics and virtual trace, the log attributes and the span tree's
// names, parents and notes must all be equal.
func TestRawHitRecordsLikeCanonicalHit(t *testing.T) {
	var logs logCapture
	s := New(Config{Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	body := syntheticBody(t, 12, 3, false, true)
	for i := 0; i < 3; i++ {
		if w := postRaw(s, "/v1/simulate", body, nil); w.Code != http.StatusOK {
			t.Fatalf("simulate #%d: %d\n%s", i+1, w.Code, w.Body)
		}
		if i == 1 && s.raw.get("simulate", body) == nil {
			t.Fatal("request 3 will not be a raw hit")
		}
	}
	dump := func(id string) (metrics, trace string) {
		e, ok := s.ring.get(id)
		if !ok {
			t.Fatalf("request %s left the ring", id)
		}
		<-e.done
		var m, tr bytes.Buffer
		if err := e.rec.WriteMetrics(&m); err != nil {
			t.Fatal(err)
		}
		if err := e.rec.WriteChromeTrace(&tr); err != nil {
			t.Fatal(err)
		}
		// The child's pid is its request ID.
		return m.String(), strings.ReplaceAll(tr.String(), `"pid":`+id+`,`, `"pid":0,`)
	}
	m2, tr2 := dump("2")
	m3, tr3 := dump("3")
	if m2 != m3 {
		t.Errorf("child metrics differ:\ncanonical hit:\n%s\nraw hit:\n%s", m2, m3)
	}
	if tr2 != tr3 {
		t.Errorf("child traces differ:\ncanonical hit:\n%s\nraw hit:\n%s", tr2, tr3)
	}
	a2, a3 := mustJSON(t, logs.attrs(t, "2")), mustJSON(t, logs.attrs(t, "3"))
	if !bytes.Equal(a2, a3) {
		t.Errorf("log attributes differ:\ncanonical hit: %s\nraw hit:       %s", a2, a3)
	}
	n2 := spanNotes(t, get(t, s, "/debug/trace/2").Body.Bytes())
	n3 := spanNotes(t, get(t, s, "/debug/trace/3").Body.Bytes())
	if n2 != n3 {
		t.Errorf("span trees differ:\ncanonical hit:\n%s\nraw hit:\n%s", n2, n3)
	}
}

// TestRawHitSpanTree checks a traced raw hit's span tree satisfies the
// tree contract and shows the stages a hit pays for: decode, a cache span
// noting the hit, encode and write, and no solve.
func TestRawHitSpanTree(t *testing.T) {
	s := testServer(t)
	body := mustJSON(t, TaskRequest{Tasks: commonRelease()})
	for i := 0; i < 3; i++ {
		postRaw(s, "/v1/solve", body, nil)
	}
	doc := fetchTrace(t, s, "3")
	if doc.WallTrace == nil {
		t.Fatal("raw hit has no wall trace")
	}
	if errs := doc.WallTrace.Verify(); len(errs) > 0 {
		t.Fatalf("span tree violates the contract: %v", errs)
	}
	byName := map[string]wspan.DocSpan{}
	for _, sp := range doc.WallTrace.Spans {
		byName[sp.Name] = sp
	}
	for _, stage := range []string{"admission", "decode", "cache", "encode", "write"} {
		if sp, ok := byName[stage]; !ok || sp.Parent != 0 {
			t.Errorf("stage %q missing or not under the root: %+v", stage, doc.WallTrace.Spans)
		}
	}
	if _, ok := byName["solve"]; ok {
		t.Error("raw hit has a solve span")
	}
	if got := byName["cache"].Notes["outcome"]; got != "hit" {
		t.Errorf("cache outcome = %q, want hit", got)
	}
	if doc.Provenance == nil || doc.Provenance.Scheduler != "auto" {
		t.Errorf("raw hit lacks provenance: %+v", doc.Provenance)
	}
}

// TestRawConcurrentRepeats sends one body from many goroutines at once:
// every answer must equal the first modulo the stamp, whichever of miss,
// coalesced wait, canonical hit or raw hit produced it. Run with -race.
func TestRawConcurrentRepeats(t *testing.T) {
	s := testServer(t)
	bodies := [][]byte{
		syntheticBody(t, 10, 1, false, true),
		syntheticBody(t, 10, 2, false, false),
	}
	want := make([]string, len(bodies))
	plain := configuredServer(t, func(c *Config) { c.CacheSize = -1 })
	for i, b := range bodies {
		want[i] = unstamped(postRaw(plain, "/v1/simulate", b, nil).Body.Bytes())
	}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan string, clients) // each client reports at most once
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				k := (g + i) % len(bodies)
				w := postRaw(s, "/v1/simulate", bodies[k], nil)
				if got := unstamped(w.Body.Bytes()); w.Code != http.StatusOK || got != want[k] {
					errs <- w.Body.String()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent repeat differs from the uncached answer:\n%s", e)
	}
}

// TestCoalescedFollowerBudgetShed parks a follower on a leader that is
// still computing and expires the follower's budget: it must get the
// budget's 429, not a status-less error.
func TestCoalescedFollowerBudgetShed(t *testing.T) {
	s := testServer(t)
	req := &TaskRequest{Tasks: commonRelease()}
	root := (*wspan.Trace)(nil).Root()
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.cached(context.Background(), nil, "solve", "auto", req, s.cfg.System, root, func(wspan.Span) (*TaskResponse, int, error) {
			close(started)
			<-release
			return &TaskResponse{}, 0, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, hit, code, err := s.cached(ctx, nil, "solve", "auto", req, s.cfg.System, root, func(wspan.Span) (*TaskResponse, int, error) {
		t.Error("follower computed")
		return nil, 0, nil
	})
	close(release)
	<-done
	if code != http.StatusTooManyRequests || !errors.Is(err, context.Canceled) || hit != nil {
		t.Errorf("abandoned follower: code %d, err %v, entry %v; want 429, context.Canceled, nil", code, err, hit)
	}
}

// TestCacheOrderBounded repeats a failing body many times: its key leaves
// the entries map after each failure, and the FIFO queue must not keep
// one copy per request.
func TestCacheOrderBounded(t *testing.T) {
	s := configuredServer(t, func(c *Config) { c.CacheSize = 16 })
	bad := mustJSON(t, TaskRequest{Tasks: generalSet()})
	for i := 0; i < 50; i++ {
		postRaw(s, "/v1/solve", bad, nil)
	}
	for i, sh := range s.cache.shards {
		if n := len(sh.order); n > 2*s.cache.perShardCap+1 {
			t.Errorf("shard %d queue holds %d keys for a cap of %d", i, n, s.cache.perShardCap)
		}
	}
}

// FuzzRawCache sends a body to a caching server three times (a miss, a
// canonical hit, a raw hit when it succeeds) and, when it is one valid
// JSON value, once more re-spaced (a canonical hit again), and the same
// body once to an uncached server: every status must match the uncached
// one and every body must equal it once the stamp is blanked.
func FuzzRawCache(f *testing.F) {
	for _, b := range decodeSeeds(f) {
		f.Add(false, b)
	}
	f.Add(false, mustJSON(f, TaskRequest{Tasks: commonRelease(), IncludeSchedule: true}))
	f.Add(true, mustJSON(f, TaskRequest{Tasks: generalSet(), Scheduler: "race"}))
	f.Add(true, syntheticBody(f, 6, 4, false, true))
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	f.Fuzz(func(t *testing.T, simulate bool, body []byte) {
		if len(body) > 16<<10 {
			t.Skip("large bodies only slow the solvers down")
		}
		path := "/v1/solve"
		if simulate {
			path = "/v1/simulate"
		}
		plain := New(Config{Logger: quiet, TraceSample: -1, CacheSize: -1})
		want := postRaw(plain, path, body, nil)
		spellings := [][]byte{body, body, body}
		if json.Valid(body) {
			var b bytes.Buffer
			if err := json.Indent(&b, body, "", "\t"); err != nil {
				t.Fatal(err)
			}
			spellings = append(spellings, b.Bytes())
		}
		s := New(Config{Logger: quiet, TraceSample: -1})
		for i, sp := range spellings {
			got := postRaw(s, path, sp, nil)
			if got.Code != want.Code || unstamped(got.Body.Bytes()) != unstamped(want.Body.Bytes()) {
				t.Fatalf("%s %q, send %d: cached %d %s\nuncached %d %s", path, sp, i+1, got.Code, got.Body, want.Code, want.Body)
			}
		}
	})
}
