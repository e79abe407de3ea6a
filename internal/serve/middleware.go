// Request middleware: ID assignment, deadline budgets, admission
// control, panic containment, chaos taps, per-request child recorders,
// wall-clock span trees, structured logging, and the service's
// wall-clock series.
//
// This file is the module's ONLY wall-clock site outside the telemetry
// quarantine (internal/telemetry and internal/telemetry/wspan, enforced
// by the telemetrycheck analyzer): request latency and service time are
// inherently wall quantities, and they stay quarantined here — handlers
// and solvers below the middleware see virtual time only (plus the
// deadline context, whose polls are pass/fail and never leak a
// timestamp, and opaque wspan handles whose clock reads live inside the
// quarantine), so every metric they record remains deterministic in the
// request sequence.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sdem/internal/faults"
	"sdem/internal/telemetry"
	"sdem/internal/telemetry/wspan"
)

// Metric names of the serving layer.
const (
	// metricRequests counts finished requests by route and status code.
	metricRequests = "sdem.serve.requests"
	// metricLatency is the wall request latency histogram by route — the
	// one nondeterministic metric family of the exposition. Sampled
	// requests attach a trace_id exemplar to the bucket they land in.
	metricLatency = "sdem.serve.latency_s"
	// metricInflight gauges currently executing requests.
	metricInflight = "sdem.serve.inflight"
	// metricEnergy distributes per-request audited virtual-time energy by
	// route (recorded by handlers on the request child).
	metricEnergy = "sdem.serve.request_energy_j"
	// metricTasks distributes request task-set sizes by route.
	metricTasks = "sdem.serve.request_tasks"
	// metricShed counts load-shed requests by route and reason
	// (queue_full, deadline, timeout, budget).
	metricShed = "sdem.serve.shed"
	// metricPanics counts handler panics converted into 500s by route.
	metricPanics = "sdem.serve.panics"
	// metricChaos counts injected serve-layer faults by route and kind.
	metricChaos = "sdem.serve.chaos"
	// metricLatencyMs names the windowed-series latency sketch: the same
	// wall measurement as metricLatency, in milliseconds, sketched per
	// request-ordinal window for /debug/series (see Config.SeriesWindow).
	metricLatencyMs = "sdem.serve.latency_ms"
	// metricCache counts schedule-cache outcomes by op and result
	// (hit, miss, coalesced). The hit/coalesced split depends on request
	// timing; the per-op total and the miss count are deterministic in
	// the request multiset.
	metricCache = "sdem.serve.cache"
)

// requestCtx is the per-request state the middleware hands each API
// handler: the request ID, the child recorder all solver work records
// into, the wall-clock span tree (nil when the request is not sampled —
// wspan no-ops on nil), the route's interned metric labels, and the
// structured-log fields the handler attaches.
type requestCtx struct {
	id     string
	route  string // path part of the route pattern, e.g. "/v1/solve"
	tel    *telemetry.Recorder
	wall   *wspan.Trace
	labels *routeLabels

	mu    sync.Mutex
	attrs []slog.Attr
	prov  *provenance // decision provenance of the request's schedule
}

// Set attaches a structured-log field to the request's completion line
// (scheduler kind, n, solve status, virtual-time energy, ...).
func (rc *requestCtx) Set(key string, value any) {
	rc.mu.Lock()
	rc.attrs = append(rc.attrs, slog.Any(key, value))
	rc.mu.Unlock()
}

// span opens a direct child of the request's root span; inert when the
// request is unsampled.
func (rc *requestCtx) span(name string) wspan.Span {
	return rc.wall.Root().Start(name)
}

// root returns the request's root span handle (inert when unsampled).
func (rc *requestCtx) root() wspan.Span { return rc.wall.Root() }

// setProv attaches the request's decision provenance for /debug/trace
// and /v1/explain. Handlers call it once the schedule is known.
func (rc *requestCtx) setProv(p *provenance) {
	if p == nil {
		return
	}
	rc.mu.Lock()
	rc.prov = p
	rc.mu.Unlock()
}

// apiHandler is a request handler running under the middleware.
type apiHandler func(rc *requestCtx, w http.ResponseWriter, r *http.Request)

// statusWriter captures the response status code for the log and the
// request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// budgetOf resolves a request's deadline budget: the client's
// X-Budget-Ms header when present (capped at MaxBudget), the server
// default otherwise.
func (s *Server) budgetOf(r *http.Request) (time.Duration, error) {
	b := s.cfg.DefaultBudget
	if v := r.Header.Get("X-Budget-Ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms <= 0 {
			return 0, fmt.Errorf("bad X-Budget-Ms %q: want a positive integer count of milliseconds", v)
		}
		b = time.Duration(ms) * time.Millisecond
	}
	if b > s.cfg.MaxBudget {
		b = s.cfg.MaxBudget
	}
	return b, nil
}

// middleware wraps an API handler: assigns the monotone request ID,
// starts the wall-clock trace (adopting an incoming W3C traceparent when
// sampled), reserves the request's trace-ring slot, resolves the
// deadline budget, runs the route's admission gate, creates the child
// recorder (pid = request ID, the sweep engine's per-work-item pattern),
// contains handler panics, logs one structured completion line, feeds
// the route latency histogram (with a trace-ID exemplar when sampled)
// and in-flight gauge, folds the child's metrics into the root recorder,
// and seals the ring entry with the child, span tree and provenance.
func (s *Server) middleware(pattern string, h apiHandler) http.Handler {
	route := pattern
	if _, r, ok := strings.Cut(pattern, " "); ok {
		route = r
	}
	lbl := s.labels[route]
	g := s.gates[route]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.reqID.Add(1)
		rc := &requestCtx{id: strconv.FormatInt(id, 10), route: route, labels: lbl, tel: s.tel.Child(int(id))}
		if k := s.cfg.TraceSample; k > 0 && id%int64(k) == 0 {
			rc.wall, _ = wspan.ParseTraceparent(r.Header.Get("traceparent"), "request")
		}
		entry := s.ring.reserve(rc.id, rc.wall.TraceID())
		sw := &statusWriter{ResponseWriter: w}
		if rc.wall != nil {
			sw.Header().Set("Traceparent", rc.wall.Traceparent())
		}
		s.tel.Gauge(metricInflight, float64(s.inflight.Add(1)))

		//lint:allow telemetrycheck: request latency is a wall quantity by definition and feeds only the exposition's nondeterministic latency family
		start := time.Now()
		s.serveOne(rc, sw, r, h, g, id)
		//lint:allow telemetrycheck: see start above — the matching end of the wall-latency measurement
		latency := time.Since(start)
		rc.wall.Finish()

		s.tel.Gauge(metricInflight, float64(s.inflight.Add(-1)))
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		s.tel.CountL(metricRequests, lbl.code(sw.code), 1)
		traceID := rc.wall.TraceID()
		if traceID != "" {
			s.tel.ObserveExL(metricLatency, lbl.route, latency.Seconds(), "trace_id="+traceID)
		} else {
			s.tel.ObserveL(metricLatency, lbl.route, latency.Seconds())
		}
		s.tel.MergeMetrics(rc.tel)
		// One atomic tick per completed request: the merged metrics land in
		// the window that was open at this completion ordinal, and the
		// latency observation lands in the same window — the ordinal
		// advances only after both.
		s.col.TickWith(metricLatencyMs, float64(latency.Nanoseconds())/1e6)
		rc.mu.Lock()
		prov := rc.prov
		rc.mu.Unlock()
		entry.seal(rc.tel, rc.wall, prov, route, sw.code)

		rc.mu.Lock()
		attrs := append([]slog.Attr{
			slog.String("id", rc.id),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.Int("code", sw.code),
			slog.Float64("latency_ms", float64(latency.Nanoseconds())/1e6),
		}, rc.attrs...)
		rc.mu.Unlock()
		if traceID != "" {
			attrs = append(attrs, slog.String("trace_id", traceID))
		}
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}

// serveOne runs the admission-controlled, budget-bounded, panic-contained
// part of one request: everything between the latency measurement points.
func (s *Server) serveOne(rc *requestCtx, sw *statusWriter, r *http.Request, h apiHandler, g *gate, id int64) {
	budget, err := s.budgetOf(r)
	if err != nil {
		httpError(rc, sw, http.StatusBadRequest, err)
		return
	}
	rc.Set("budget_ms", budget.Milliseconds())
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	r = r.WithContext(ctx)

	if g != nil {
		asp := rc.span("admission")
		ok, reason, retryAfter := g.admit(ctx, budget)
		if !ok {
			asp.Note("shed", reason)
			asp.End()
			s.shed(rc, sw, reason, retryAfter)
			return
		}
		asp.End()
		//lint:allow telemetrycheck: service time (execution only, queue wait excluded) seeds the admission gate's EWMA and exists only on the wall clock
		execStart := time.Now()
		defer func() {
			//lint:allow telemetrycheck: see execStart above — the matching end of the service-time measurement
			g.release(time.Since(execStart))
		}()
	}

	s.invoke(rc, sw, r, h, id)

	// A 429 after admission means the budget expired mid-computation and
	// a cancellation checkpoint abandoned the solve.
	if sw.code == http.StatusTooManyRequests {
		sw.Header().Set("Retry-After", "1")
		s.tel.CountL(metricShed, rc.labels.shedReason(shedBudget), 1)
		rc.Set("shed", shedBudget)
	}
}

// shed refuses a request at the admission gate: 429, a Retry-After hint,
// and the shed-reason counter. Shedding never reaches a handler, so it
// costs microseconds no matter how overloaded the solvers are.
func (s *Server) shed(rc *requestCtx, sw *statusWriter, reason string, retryAfter int) {
	s.tel.CountL(metricShed, rc.labels.shedReason(reason), 1)
	rc.Set("status", "shed")
	rc.Set("shed", reason)
	sw.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	rc.writeJSON(sw, http.StatusTooManyRequests,
		errorResponse{Error: "overloaded: " + reason + "; retry after " + strconv.Itoa(retryAfter) + "s"})
}

// invoke runs the handler under the panic barrier and the chaos tap. A
// panic becomes a 500 plus a counter increment instead of a dead
// connection — and if the handler had already started a response body,
// the status stands but the connection still survives the recover.
func (s *Server) invoke(rc *requestCtx, sw *statusWriter, r *http.Request, h apiHandler, id int64) {
	defer func() {
		if p := recover(); p != nil {
			s.tel.CountL(metricPanics, rc.labels.route, 1)
			rc.Set("status", "panic")
			rc.Set("panic", fmt.Sprint(p))
			if sw.code == 0 {
				rc.writeJSON(sw, http.StatusInternalServerError,
					errorResponse{Error: "internal error: handler panicked"})
			}
		}
	}()
	if s.cfg.Chaos != nil {
		if f, ok := s.cfg.Chaos.At(id); ok {
			s.tel.CountL(metricChaos, "kind="+f.Kind.String()+","+rc.labels.route, 1)
			rc.Set("chaos", f.Kind.String())
			switch f.Kind {
			case faults.ServeLatency:
				time.Sleep(time.Duration(f.Delay * float64(time.Second)))
			case faults.ServeError:
				httpError(rc, sw, http.StatusInternalServerError, errors.New("chaos: injected error"))
				return
			case faults.ServePanic:
				panic("chaos: injected panic (request " + rc.id + ")")
			}
		}
	}
	h(rc, sw, r)
}
