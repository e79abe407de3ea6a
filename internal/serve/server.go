// Package serve is the long-running SDEM solve service behind cmd/sdemd:
// an HTTP daemon that accepts solve / simulate / execute requests over
// JSON task sets and answers with schedules and per-component energy
// attributions, while exposing live observability surfaces:
//
//	POST /v1/solve       offline optimal schedule (§4/§5 via sdem core)
//	POST /v1/simulate    online policies (sdem-on, mbkp, mbkps, race, critical)
//	POST /v1/execute     fault-perturbed replay with graceful degradation
//	POST /v1/batch       many solve/simulate requests on the worker pool
//	GET  /metrics        OpenMetrics exposition of the live recorder
//	GET  /debug/series   windowed time series (JSONL) on the request ordinal clock
//	GET  /healthz        liveness (always 200 while the process serves)
//	GET  /readyz         readiness (503 once shutdown has begun)
//	GET  /debug/trace/{id}  Chrome trace_event replay of a recent request
//	GET  /debug/pprof/*  standard pprof surfaces
//
// Observability model: the server owns one root telemetry.Recorder for
// its whole lifetime. Every request computes on a child recorder (pid =
// request ID — the same pattern the sweep engine uses per grid point);
// on completion the middleware folds the child's metrics into the root
// with MergeMetrics and parks the child, trace events and all, in a
// bounded replay ring for /debug/trace. Solver and simulator metrics
// therefore stay pure virtual-time quantities, while the middleware adds
// the only wall-clock series (request latency) — and wall time never
// leaves middleware.go (enforced by the telemetrycheck analyzer).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"sdem/internal/faults"
	"sdem/internal/parallel"
	"sdem/internal/power"
	"sdem/internal/telemetry"
	"sdem/internal/telemetry/export"
	"sdem/internal/telemetry/series"
	"sdem/internal/telemetry/wspan"
)

// Config tunes a Server. The zero value serves the paper's default
// platform with sensible bounds.
type Config struct {
	// System is the platform used by requests that do not carry one.
	// Zero-valued means power.DefaultSystem.
	System power.System
	// MaxBody caps request body size in bytes (default 1 MiB).
	MaxBody int64
	// RingSize bounds the /debug/trace replay ring (default 64 requests).
	RingSize int
	// Workers bounds the /v1/batch worker pool (default: one per CPU).
	Workers int
	// MaxBatch caps the number of items per /v1/batch request
	// (default 256).
	MaxBatch int
	// Logger receives the structured request log (default slog.Default).
	Logger *slog.Logger

	// Concurrency caps simultaneously executing requests per compute
	// route (default 2× Workers). Requests beyond it queue.
	Concurrency int
	// QueueDepth bounds requests waiting for an execution slot per
	// compute route, beyond the executing ones (default 8× Concurrency).
	// Requests beyond it shed immediately with 429.
	QueueDepth int
	// DefaultBudget is the deadline budget of requests that send no
	// X-Budget-Ms header (default 5s). The budget covers queue wait and
	// computation; solvers abandon the work at the next cancellation
	// checkpoint once it expires.
	DefaultBudget time.Duration
	// MaxBudget caps client-supplied budgets (default 30s), so a client
	// cannot park work behind an hour-long deadline.
	MaxBudget time.Duration
	// CacheSize bounds the coalescing schedule cache in responses
	// (default 4096); negative disables caching.
	CacheSize int
	// TraceSample selects which requests get a wall-clock span tree:
	// every TraceSample-th request ID is sampled (1 — the default —
	// traces everything; negative disables wall tracing). Virtual-time
	// traces and metrics are unaffected either way, and response bodies
	// are byte-identical with tracing on or off — sampling only adds
	// headers, exemplars and /debug/trace detail.
	TraceSample int
	// Chaos, when non-nil, injects the plan's serve-layer faults
	// (latency, errors, panics) by request ordinal — deterministic and
	// replayable under a fixed plan seed.
	Chaos *faults.ServePlan

	// SeriesWindow sizes the /debug/series windows in completed requests:
	// the window clock is the monotone request-completion ordinal, never
	// wall time, so the series layout is deterministic in the request
	// sequence (the sketched latency values inside are wall measurements).
	// Default 256; negative disables the windowed series.
	SeriesWindow int

	// ReadTimeout, WriteTimeout and IdleTimeout bound the HTTP server's
	// connection phases so slow or stalled clients cannot hold
	// connections open indefinitely. Defaults: 30s read, 2× MaxBudget
	// write (a response is always allowed to outlive the largest
	// admitted budget), 120s idle.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	IdleTimeout  time.Duration
}

func (c Config) withDefaults() Config {
	if c.System.Cores == 0 && c.System.Core == (power.Core{}) {
		c.System = power.DefaultSystem()
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.RingSize <= 0 {
		c.RingSize = 64
	}
	if c.Workers <= 0 {
		c.Workers = parallel.DefaultWorkers()
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 2 * c.Workers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8 * c.Concurrency
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 5 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 30 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.TraceSample == 0 {
		c.TraceSample = 1
	}
	if c.SeriesWindow == 0 {
		c.SeriesWindow = 256
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 2 * c.MaxBudget
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 120 * time.Second
	}
	return c
}

// Server is the HTTP solve service. Create one with New and mount
// Handler on an http.Server.
type Server struct {
	cfg Config
	log *slog.Logger

	// tel is the root recorder of the whole process; request children are
	// folded into it as they complete.
	tel *telemetry.Recorder

	mux      *http.ServeMux
	reqID    atomic.Int64
	inflight atomic.Int64
	ready    atomic.Bool
	ring     *traceRing

	// gates are the per-compute-route admission controllers.
	gates map[string]*gate
	// labels are the per-route interned metric label tables.
	labels map[string]*routeLabels
	// cache is the coalescing schedule cache; nil when disabled.
	cache *schedCache
	// col windows the root recorder on the request-completion ordinal for
	// /debug/series; nil when disabled (every method no-ops on nil).
	col *series.Collector
	// stdlibDecode routes every body through json.Decoder, skipping the
	// single-pass TaskRequest decoder: the oracle its parity tests
	// compare against. New never sets it.
	stdlibDecode bool
}

// New builds a Server and its route table.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		log:    cfg.Logger,
		tel:    telemetry.New(),
		mux:    http.NewServeMux(),
		ring:   newTraceRing(cfg.RingSize),
		gates:  make(map[string]*gate),
		labels: make(map[string]*routeLabels),
	}
	if cfg.CacheSize > 0 {
		s.cache = newSchedCache(cfg.CacheSize)
	}
	s.tel.RegisterHistogram(metricLatency, telemetry.BucketsSeconds)
	s.tel.RegisterHistogram(metricEnergy, telemetry.BucketsJoules)
	s.tel.RegisterHistogram(metricTasks, telemetry.BucketsCount)
	if cfg.SeriesWindow > 0 {
		// The error path is unreachable: the interval is a validated
		// positive int and the clock constant is well-formed.
		s.col, _ = series.NewCollector(s.tel, series.ClockOrdinal, float64(cfg.SeriesWindow))
	}
	s.ready.Store(true)

	s.handle("POST /v1/solve", s.handleCompute(s.solveOne))
	s.handle("POST /v1/simulate", s.handleCompute(s.simulateOne))
	s.handle("POST /v1/execute", s.handleExecute)
	s.handle("POST /v1/batch", s.handleBatch)
	s.handle("POST /v1/explain", s.handleExplain)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/series", s.handleSeries)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ready\n"))
	})
	s.mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// handle mounts an API handler behind the request middleware (ID
// assignment, admission gate, budget context, panic barrier, child
// recorder, structured log, latency metrics). Every compute route gets
// its own bounded admission gate so one saturated route cannot starve
// the others.
func (s *Server) handle(pattern string, h apiHandler) {
	route := pattern
	if _, r, ok := strings.Cut(pattern, " "); ok {
		route = r
	}
	s.gates[route] = newGate(s.cfg.Concurrency, s.cfg.QueueDepth)
	s.labels[route] = newRouteLabels(route)
	s.mux.Handle(pattern, s.middleware(pattern, h))
}

// Handler returns the service's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Telemetry returns the root recorder (tests and embedders may seed or
// inspect it; the exposition snapshots it).
func (s *Server) Telemetry() *telemetry.Recorder { return s.tel }

// SetReady flips the /readyz state; Run flips it to false when shutdown
// begins so load balancers drain the instance before connections die.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// handleMetrics snapshots the live recorder and renders it as
// OpenMetrics text. The snapshot is taken under the recorder lock, so
// scrapes race neither each other nor in-flight merges; rendering is
// lock-free and byte-deterministic for a fixed metric state.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	if err := export.WriteOpenMetrics(w, s.tel.Snapshot()); err != nil {
		s.log.Error("metrics exposition failed", "err", err)
	}
}

// handleSeries dumps the completed request-ordinal windows as JSONL —
// the format sdemwatch consumes directly (sdemwatch -url .../debug/series
// -profile serve). Only sealed windows are exposed; the partially filled
// current window keeps accumulating until its ordinal boundary.
func (s *Server) handleSeries(w http.ResponseWriter, _ *http.Request) {
	if s.col == nil {
		http.Error(w, "windowed series disabled (SeriesWindow < 0)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := s.col.Snapshot().WriteJSONL(w); err != nil {
		s.log.Error("series dump failed", "err", err)
	}
}

// traceDoc is the combined /debug/trace/{id} document: the request's
// identity and outcome, its wall-clock span tree, the schedule's
// decision provenance, and the virtual-time Chrome trace replay (load
// the virtual_trace value in ui.perfetto.dev).
type traceDoc struct {
	Request string `json:"request"`
	Route   string `json:"route"`
	Status  int    `json:"status"`
	TraceID string `json:"trace_id,omitempty"`
	// WallTrace is the wspan span tree (absent when the request was not
	// sampled for wall tracing).
	WallTrace *wspan.Doc `json:"wall_trace,omitempty"`
	// Provenance is the per-gap race/sleep/crawl record (absent on
	// requests that produced no schedule).
	Provenance *Explanation `json:"provenance,omitempty"`
	// VirtualTrace is the Chrome trace_event replay of the request's
	// virtual-time solver spans.
	VirtualTrace json.RawMessage `json:"virtual_trace,omitempty"`
}

// handleTrace replays a recent request's trace. The ID is a request ID
// or a 32-hex wall trace ID (the form latency exemplars carry). The ring
// lookup is atomic — a reserved-but-unfinished request blocks until its
// entry seals rather than flapping 404 — and an evicted ID is a clean
// 404, never a torn entry.
//
// Formats: default is the combined traceDoc; ?format=chrome is the bare
// Chrome trace_event document; ?format=wall is the bare wspan.Doc as one
// JSONL record (what cmd/sdemtrace aggregates).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	e, ok := s.ring.get(r.PathValue("id"))
	if !ok {
		http.Error(w, "trace not found (evicted or unknown request id)", http.StatusNotFound)
		return
	}
	select {
	case <-e.done:
	case <-r.Context().Done():
		return // client gave up while the request was still in flight
	}
	switch r.URL.Query().Get("format") {
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		if err := e.rec.WriteChromeTrace(w); err != nil {
			s.log.Error("trace replay failed", "err", err)
		}
	case "wall":
		if e.wall == nil {
			http.Error(w, "request was not sampled for wall tracing", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := e.wall.WriteJSON(w); err != nil {
			s.log.Error("wall trace write failed", "err", err)
		}
	default:
		doc := traceDoc{Request: e.id, Route: e.route, Status: e.status, Provenance: e.prov.explain()}
		if e.wall != nil {
			doc.TraceID = e.wall.TraceID()
			doc.WallTrace = e.wall.Doc()
		}
		var buf bytes.Buffer
		if err := e.rec.WriteChromeTrace(&buf); err == nil {
			doc.VirtualTrace = bytes.TrimSpace(buf.Bytes())
		}
		// Compact marshal (not the indented writeJSON) keeps the embedded
		// raw documents byte-exact.
		out, err := json.Marshal(doc)
		if err != nil {
			http.Error(w, "trace encoding failed", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(out, '\n'))
	}
}

// Run serves s on the listener until ctx is cancelled, then drains
// gracefully: readiness flips to 503 immediately, in-flight requests get
// up to grace to finish, and a clean drain returns nil. The listener is
// always closed on return.
func Run(ctx context.Context, l net.Listener, s *Server, grace time.Duration) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       s.cfg.ReadTimeout,
		WriteTimeout:      s.cfg.WriteTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	s.SetReady(false)
	s.log.Info("shutting down", "grace", grace.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}
