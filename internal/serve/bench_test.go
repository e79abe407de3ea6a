// End-to-end serve benchmarks: whole requests through New(cfg).Handler()
// — middleware, admission, decode, cache, solve, encode — on sdemd's
// default configuration, driven through httptest with no network.
package serve

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchHandler is sdemd's default server (8 cores, 4096-entry cache,
// every request wall-traced) with the request log discarded.
func benchHandler() http.Handler {
	return New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}).Handler()
}

// benchBodies marshals count request bodies of n-task synthetic sets, one
// seed each, so no two bodies share a cache key.
func benchBodies(b *testing.B, count, n int, commonRelease bool) [][]byte {
	b.Helper()
	bodies := make([][]byte, count)
	for i := range bodies {
		bodies[i] = syntheticBody(b, n, int64(i+1), commonRelease, false)
	}
	return bodies
}

// benchServe sends b.N requests to route, cycling through bodies, and
// fails on the first non-200 answer. A single body is sent once before
// the timer starts, so every timed request is a cache hit and allocs/op
// does not depend on b.N.
func benchServe(b *testing.B, route string, bodies [][]byte) {
	h := benchHandler()
	send := func(body []byte) {
		req := httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("%s: %d\n%s", route, w.Code, w.Body.String())
		}
	}
	if len(bodies) == 1 {
		send(bodies[0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(bodies[i%len(bodies)])
	}
}

// The hot benchmarks repeat one body, so every timed request is a cache
// hit; the cold ones send a unique body per request, so every request
// misses and solves.

func BenchmarkServeSolveHot(b *testing.B) {
	benchServe(b, "/v1/solve", benchBodies(b, 1, 100, true))
}

func BenchmarkServeSolveCold(b *testing.B) {
	benchServe(b, "/v1/solve", benchBodies(b, b.N, 100, true))
}

func BenchmarkServeSimulateHot(b *testing.B) {
	benchServe(b, "/v1/simulate", benchBodies(b, 1, 60, false))
}

func BenchmarkServeSimulateCold(b *testing.B) {
	benchServe(b, "/v1/simulate", benchBodies(b, b.N, 60, false))
}
