// API handlers of the solve service. Handlers compute exclusively on
// virtual schedule/sim time through the existing solver, simulator and
// resilient-runtime APIs; every metric they record goes to the request's
// child recorder and is therefore deterministic in the request payload.
// Wall-clock stage bracketing (decode → cache → solve → encode → write)
// goes through opaque wspan handles, so no clock reads happen here.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"sdem/internal/core"
	"sdem/internal/encode"
	"sdem/internal/faults"
	"sdem/internal/parallel"
	"sdem/internal/power"
	"sdem/internal/resilient"
	"sdem/internal/schedule"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
	"sdem/internal/telemetry/wspan"
)

// Online-policy provenance counters (bumped by internal/online); solve
// spans note their per-request deltas.
const (
	metricSkippedSolves = "sdem.solver.online.skipped_solves"
	metricPlanReuse     = "sdem.solver.online.plan_reuse"
)

// TaskRequest is the request envelope of the compute endpoints. Tasks
// uses the same JSON shape as the encode package's task documents.
type TaskRequest struct {
	// Tasks is the task set to schedule.
	Tasks task.Set `json:"tasks"`
	// System overrides the server's default platform when present.
	System *power.System `json:"system,omitempty"`
	// Cores overrides the platform core count when > 0.
	Cores int `json:"cores,omitempty"`
	// Scheduler selects the algorithm: "auto" (core.Auto; the /v1/solve
	// default) or a name in core.LookupScheduler's table ("sdem-on" is
	// the /v1/simulate default).
	Scheduler string `json:"scheduler,omitempty"`
	// IncludeSchedule returns the full segment schedule in the response.
	IncludeSchedule bool `json:"include_schedule,omitempty"`
	// Faults configures fault injection (/v1/execute only).
	Faults *FaultSpec `json:"faults,omitempty"`
}

// FaultSpec tunes /v1/execute fault injection and recovery.
type FaultSpec struct {
	// Seed makes the fault plan replayable; same request, same faults.
	Seed int64 `json:"seed"`
	// Intensity is the fault generator's headline knob in [0, 1].
	Intensity float64 `json:"intensity"`
	// Recovery selects the degradation policy: "full" (default — boost,
	// replan, race) or "none" (bare replay).
	Recovery string `json:"recovery,omitempty"`
}

// TaskResponse is the result of one solve/simulate/execute request.
type TaskResponse struct {
	Request    string              `json:"request"`
	Scheduler  string              `json:"scheduler"`
	Scheme     string              `json:"scheme,omitempty"`
	Model      string              `json:"model"`
	N          int                 `json:"n"`
	EnergyJ    float64             `json:"energy_j"`
	Components sim.EnergyBreakdown `json:"components"`
	// Misses lists task IDs that completed late or not at all.
	Misses []int `json:"misses,omitempty"`
	// Recovery statistics (/v1/execute only).
	Recoveries  int `json:"recoveries,omitempty"`
	FaultMisses int `json:"fault_misses,omitempty"`
	Averted     int `json:"averted,omitempty"`
	// Schedule is included when the request asked for it.
	Schedule *schedule.Schedule `json:"schedule,omitempty"`
	// TraceURL replays this request's virtual-time trace while it remains
	// in the replay ring.
	TraceURL string `json:"trace_url"`

	// prov is the schedule's decision provenance: the summary, computed
	// inside the cacheable compute closure, and the schedule the full
	// document is built from on read. Unexported: encoding/json skips it,
	// which keeps cached and fresh response bodies byte-identical;
	// /v1/explain and /debug/trace are the surfaces that serialize it.
	prov *provenance
}

// errorResponse is the JSON error shape of every endpoint.
type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON encodes and writes one response, bracketing the encode and
// write stages with spans and emitting the Server-Timing stage breakdown
// (every stage ended so far — admission, decode, cache, encode) before
// the status line. MarshalIndent followed by a newline produces exactly
// the bytes json.Encoder with the same indent would, so buffering for
// the write span does not perturb response bodies.
func (rc *requestCtx) writeJSON(w http.ResponseWriter, code int, v any) {
	esp := rc.span("encode")
	buf, err := json.MarshalIndent(v, "", "  ")
	esp.End()
	if err != nil {
		encodeFailed(w)
		return
	}
	rc.write(w, code, append(buf, '\n'))
}

// writeEntry writes a cached entry's response stamped for this request:
// the bytes writeJSON(stamp(e.resp, rc.id)) would write, spliced into the
// entry's once-encoded body under the encode span.
func (rc *requestCtx) writeEntry(w http.ResponseWriter, e *cacheEntry) {
	esp := rc.span("encode")
	buf := bodies.Get().(*bytes.Buffer)
	defer putBody(buf)
	ok := e.stampInto(buf, rc.id)
	esp.End()
	if !ok {
		encodeFailed(w)
		return
	}
	rc.write(w, http.StatusOK, buf.Bytes())
}

// write sends an encoded body with its headers under the write span.
func (rc *requestCtx) write(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if st := rc.wall.ServerTiming(); st != "" {
		w.Header().Set("Server-Timing", st)
	}
	w.WriteHeader(code)
	wsp := rc.span("write")
	w.Write(body)
	wsp.End()
}

// encodeFailed answers a response that did not encode. Responses are
// plain data structs; reaching this is a bug, but the client still
// deserves a well-formed error body.
func encodeFailed(w http.ResponseWriter) {
	http.Error(w, `{"error":"internal error: response encoding failed"}`, http.StatusInternalServerError)
}

func httpError(rc *requestCtx, w http.ResponseWriter, code int, err error) {
	rc.Set("status", "error")
	rc.Set("err", err.Error())
	rc.writeJSON(w, code, errorResponse{Error: err.Error()})
}

// errorCode maps solver errors onto HTTP status codes: model/feasibility
// errors are the client's (422), an expired deadline budget is a
// mid-flight shed (429 — the request was sound, the fleet ran out of
// time for it), everything else is a 500.
func errorCode(err error) int {
	var general core.ErrGeneralOffline
	switch {
	case errors.As(err, &general),
		errors.Is(err, schedule.ErrInfeasible),
		errors.Is(err, schedule.ErrDeadlineMiss),
		errors.Is(err, schedule.ErrSpeedCap):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

// maxPooledBody is the largest body buffer returned to bodies; a buffer
// that grew past it served a rare large request and is left to the GC.
const maxPooledBody = 64 << 10

// bodies recycles the buffers request bodies are read into and cached
// responses are stamped into.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putBody returns a buffer to bodies unless it grew past maxPooledBody.
func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodies.Put(buf)
	}
}

// decode reads the request body and parses it into req under the
// request's decode span (readBody, then parse).
func (s *Server) decode(rc *requestCtx, w http.ResponseWriter, r *http.Request, req any) bool {
	sp := rc.span("decode")
	defer sp.End()
	buf, ok := s.readBody(rc, w, r)
	if !ok {
		return false
	}
	defer putBody(buf)
	return s.parse(rc, w, buf.Bytes(), req)
}

// readBody reads the request body (bounded by MaxBody) in full into a
// pooled buffer the caller returns with putBody. A body over the limit is
// the client's size problem (413), not a parse error, even when its first
// JSON value ends inside the limit.
func (s *Server) readBody(rc *requestCtx, w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf := bodies.Get().(*bytes.Buffer)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)); err != nil {
		putBody(buf)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(rc, w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", tooLarge.Limit))
			return nil, false
		}
		httpError(rc, w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return nil, false
	}
	return buf, true
}

// parse decodes body into req. A *TaskRequest goes through the
// single-pass decoder first; whatever that declines — and every other
// request type — is decoded by json.Decoder with unknown fields
// disallowed, which also supplies every 400 body.
func (s *Server) parse(rc *requestCtx, w http.ResponseWriter, body []byte, req any) bool {
	if tr, ok := req.(*TaskRequest); ok && !s.stdlibDecode && decodeTaskRequest(body, tr) {
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		httpError(rc, w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// system resolves the effective platform of a request.
func (s *Server) system(req *TaskRequest) (power.System, error) {
	sys := s.cfg.System
	if req.System != nil {
		sys = *req.System
	}
	if req.Cores > 0 {
		sys.Cores = req.Cores
	}
	if err := sys.Validate(); err != nil {
		return sys, fmt.Errorf("bad system: %w", err)
	}
	return sys, nil
}

// record annotates the request log and child recorder with the outcome
// every compute endpoint shares.
func (rc *requestCtx) record(sched string, n int, energy float64, misses int) {
	rc.Set("sched", sched)
	rc.Set("n", n)
	rc.Set("energy_j", energy)
	if misses > 0 {
		rc.Set("misses", misses)
		rc.Set("status", "misses")
	} else {
		rc.Set("status", "ok")
	}
	rc.tel.ObserveL(metricEnergy, rc.labels.route, energy)
	rc.tel.ObserveL(metricTasks, rc.labels.route, float64(n))
}

// handleCompute serves a compute endpoint: /v1/solve with solveOne (the
// offline §4/§5 dispatch for common-release and agreeable-deadline task
// sets) and /v1/simulate with simulateOne (an online policy); op is the
// route's cache op. A body the raw index knows is answered from its
// entry without being parsed (rawHit); any other body is decoded and
// goes through the canonical cache, and a canonical hit or coalesced
// wait aliases the body to the entry that answered it.
func (s *Server) handleCompute(op string, compute func(context.Context, *telemetry.Recorder, *TaskRequest, wspan.Span) (*TaskResponse, *cacheEntry, int, error)) apiHandler {
	return func(rc *requestCtx, w http.ResponseWriter, r *http.Request) {
		sp := rc.span("decode")
		body, ok := s.readBody(rc, w, r)
		if !ok {
			sp.End()
			return
		}
		defer putBody(body)
		if e := s.raw.get(op, body.Bytes()); e != nil {
			sp.End()
			s.rawHit(rc, w, op, e)
			return
		}
		var req TaskRequest
		ok = s.parse(rc, w, body.Bytes(), &req)
		sp.End()
		if !ok {
			return
		}
		resp, hit, code, err := compute(r.Context(), rc.tel, &req, rc.root())
		if err != nil {
			httpError(rc, w, code, err)
			return
		}
		if hit != nil {
			s.raw.add(op, body.Bytes(), hit)
		}
		rc.answer(w, resp, hit)
	}
}

// rawHit answers a body the raw index aliases to e with what a canonical
// hit on e records and writes: a cache span noting the hit, the hit
// counter, then answer.
func (s *Server) rawHit(rc *requestCtx, w http.ResponseWriter, op string, e *cacheEntry) {
	csp := rc.span("cache")
	csp.Note("outcome", string(cacheHit))
	csp.End()
	rc.tel.CountL(metricCache, cacheLabel(op, cacheHit), 1)
	rc.answer(w, e.resp, e)
}

// answer records a computed canonical response on the request and writes
// it stamped: from hit's once-encoded body when an existing cache entry
// answered, encoded afresh otherwise.
func (rc *requestCtx) answer(w http.ResponseWriter, resp *TaskResponse, hit *cacheEntry) {
	rc.setProv(resp.prov)
	rc.record(resp.Scheduler, resp.N, resp.EnergyJ, len(resp.Misses))
	if hit != nil {
		rc.writeEntry(w, hit)
		return
	}
	rc.writeJSON(w, http.StatusOK, stamp(resp, rc.id))
}

// cached satisfies a compute request through the coalescing schedule
// cache when it is enabled: identical canonical requests cost one solve,
// concurrent identical requests coalesce onto one leader. The cache span
// (a child of parent) brackets the lookup and notes its outcome; the
// solve span is opened under it only when this request's own goroutine
// actually computes — a hit or coalesced wait has no solve child.
// compute must build the canonical response — Request and TraceURL
// blank — and the caller stamps its own copy. The returned entry is the
// existing one that answered a hit or coalesced wait, nil when this
// request computed.
func (s *Server) cached(ctx context.Context, tel *telemetry.Recorder, op, scheduler string, req *TaskRequest, sys power.System, parent wspan.Span, compute func(wspan.Span) (*TaskResponse, int, error)) (*TaskResponse, *cacheEntry, int, error) {
	if s.cache == nil {
		sp := parent.Start("solve")
		defer sp.End()
		resp, code, err := compute(sp)
		return resp, nil, code, err
	}
	csp := parent.Start("cache")
	key := encode.CanonicalKey(op, scheduler, req.IncludeSchedule, req.Tasks, sys)
	e, outcome, err := s.cache.do(ctx, key, func() (*TaskResponse, int, error) {
		sp := csp.Start("solve")
		defer sp.End()
		return compute(sp)
	})
	csp.Note("outcome", string(outcome))
	csp.End()
	tel.CountL(metricCache, cacheLabel(op, outcome), 1)
	switch {
	case err != nil: // a follower whose budget ran out waiting
		return nil, nil, errorCode(err), err
	case e.err != nil:
		return nil, nil, e.code, e.err
	case outcome == cacheMiss:
		return e.resp, nil, 0, nil
	}
	return e.resp, e, 0, nil
}

// tracePath prefixes a request ID to form its trace URL.
const tracePath = "/debug/trace/"

// stamp copies a canonical (cacheable) response and binds it to one
// request: the two per-request fields are the only bytes that may differ
// between a cached and a freshly solved response.
func stamp(resp *TaskResponse, id string) *TaskResponse {
	out := *resp
	out.Request = id
	out.TraceURL = tracePath + id
	return &out
}

// solveOne runs one offline solve on the given recorder; shared by
// /v1/solve, /v1/explain and /v1/batch. parent is the wall span the
// cache/solve stages nest under (the request root, or a batch item). It
// returns the canonical response, unstamped, and the cache entry that
// answered it when that was a hit or coalesced wait (see cached).
func (s *Server) solveOne(ctx context.Context, tel *telemetry.Recorder, req *TaskRequest, parent wspan.Span) (*TaskResponse, *cacheEntry, int, error) {
	if req.Scheduler != "" && req.Scheduler != "auto" {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("scheduler %q is not an offline scheme; use /v1/simulate", req.Scheduler)
	}
	sys, err := s.system(req)
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	return s.cached(ctx, tel, "solve", "auto", req, sys, parent, func(sp wspan.Span) (*TaskResponse, int, error) {
		sol, err := core.SolveCtx(ctx, req.Tasks, sys, tel)
		if err != nil {
			return nil, errorCode(err), err
		}
		e := sim.ComponentBreakdown(schedule.Audit(sol.Schedule, sys))
		resp := &TaskResponse{
			Scheduler:  "auto",
			Scheme:     sol.Scheme,
			Model:      sol.Model.String(),
			N:          len(req.Tasks),
			EnergyJ:    e.Total(),
			Components: e,
			prov:       newProvenance("auto", sol.Schedule, sys),
		}
		sp.Note("scheme", sol.Scheme)
		noteProvenance(sp, resp.prov)
		if req.IncludeSchedule {
			resp.Schedule = sol.Schedule
		}
		return resp, 0, nil
	})
}

// simulateOne runs one online policy on the given recorder; shared by
// /v1/simulate, /v1/explain and /v1/batch. Its results are solveOne's.
func (s *Server) simulateOne(ctx context.Context, tel *telemetry.Recorder, req *TaskRequest, parent wspan.Span) (*TaskResponse, *cacheEntry, int, error) {
	sys, err := s.system(req)
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	sched := req.Scheduler
	if sched == "" {
		sched = "sdem-on"
	}
	run, err := core.LookupScheduler(sched)
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	return s.cached(ctx, tel, "simulate", sched, req, sys, parent, func(sp wspan.Span) (*TaskResponse, int, error) {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, errorCode(err), err
			}
		}
		// The sleep-certificate and plan-delta memo counters accumulate
		// over the recorder's lifetime; the deltas across this run are
		// this request's short-circuit provenance.
		skip0 := tel.CounterValue(metricSkippedSolves, "")
		reuse0 := tel.CounterValue(metricPlanReuse, "")
		res, err := run(ctx, req.Tasks, sys, tel)
		if err != nil {
			return nil, errorCode(err), err
		}
		if sched == "sdem-on" {
			sp.NoteInt("skipped_solves", tel.CounterValue(metricSkippedSolves, "")-skip0)
			sp.NoteInt("plan_reuse", tel.CounterValue(metricPlanReuse, "")-reuse0)
		}
		e := res.EnergyBreakdown()
		resp := &TaskResponse{
			Scheduler:  sched,
			Model:      req.Tasks.Classify().String(),
			N:          len(req.Tasks),
			EnergyJ:    e.Total(),
			Components: e,
			Misses:     res.Misses,
			prov:       newProvenance(sched, res.Schedule, sys),
		}
		noteProvenance(sp, resp.prov)
		if req.IncludeSchedule {
			resp.Schedule = res.Schedule
		}
		return resp, 0, nil
	})
}

// handleExecute plans a schedule, injects a seeded fault plan, and
// replays it through the graceful-degradation runtime.
func (s *Server) handleExecute(rc *requestCtx, w http.ResponseWriter, r *http.Request) {
	var req TaskRequest
	if !s.decode(rc, w, r, &req) {
		return
	}
	sys, err := s.system(&req)
	if err != nil {
		httpError(rc, w, http.StatusBadRequest, err)
		return
	}
	if req.Faults == nil {
		httpError(rc, w, http.StatusBadRequest, errors.New("execute needs a faults spec (seed, intensity)"))
		return
	}
	pol := resilient.DefaultPolicy()
	if req.Faults.Recovery == "none" {
		pol = resilient.NoRecovery()
	} else if req.Faults.Recovery != "" && req.Faults.Recovery != "full" {
		httpError(rc, w, http.StatusBadRequest, fmt.Errorf("unknown recovery policy %q (want full or none)", req.Faults.Recovery))
		return
	}
	pol.Telemetry = rc.tel

	// Plan: offline optimum when the model has one, SDEM-ON otherwise —
	// the same dispatch cmd/sdem's auto mode uses. The solve span covers
	// planning and the perturbed replay; /v1/execute never caches (the
	// fault plan makes each request its own experiment).
	sp := rc.span("solve")
	plan, planner, code, err := s.planSchedule(r.Context(), rc.tel, &req, sys)
	if err != nil {
		sp.End()
		httpError(rc, w, code, err)
		return
	}
	sp.Note("planner", planner)
	fp := faults.Generate(faults.Config{Intensity: req.Faults.Intensity}, req.Tasks, sys, req.Faults.Seed)
	res, err := resilient.Execute(plan, req.Tasks, sys, fp, pol)
	if err != nil {
		sp.End()
		httpError(rc, w, errorCode(err), err)
		return
	}
	prov := newProvenance(planner, res.Sim.Schedule, sys)
	noteProvenance(sp, prov)
	sp.End()
	rc.setProv(prov)

	e := res.Sim.EnergyBreakdown()
	resp := &TaskResponse{
		Request:     rc.id,
		Scheduler:   planner,
		Model:       req.Tasks.Classify().String(),
		N:           len(req.Tasks),
		EnergyJ:     res.Energy,
		Components:  e,
		Misses:      res.Sim.Misses,
		Recoveries:  len(res.Recoveries),
		FaultMisses: len(res.FaultMisses),
		Averted:     len(res.Averted),
		TraceURL:    tracePath + rc.id,
		prov:        prov,
	}
	if req.IncludeSchedule {
		resp.Schedule = res.Sim.Schedule
	}
	rc.Set("faults", len(fp.Faults))
	rc.Set("recoveries", len(res.Recoveries))
	rc.record(planner, resp.N, resp.EnergyJ, len(resp.Misses))
	rc.writeJSON(w, http.StatusOK, resp)
}

// planSchedule produces the fault-free plan /v1/execute perturbs. The
// budget context bounds the planning phase; the perturbed replay itself
// is bounded by the admission gate's concurrency cap.
func (s *Server) planSchedule(ctx context.Context, tel *telemetry.Recorder, req *TaskRequest, sys power.System) (*schedule.Schedule, string, int, error) {
	sol, res, err := core.Auto(ctx, req.Tasks, sys, tel)
	switch {
	case err != nil:
		return nil, "", errorCode(err), err
	case sol != nil:
		return sol.Schedule, "auto", 0, nil
	}
	return res.Schedule, "sdem-on", 0, nil
}

// ExplainResponse is the /v1/explain result: the solved request's
// headline numbers plus the full decision provenance.
type ExplainResponse struct {
	Request     string       `json:"request"`
	Scheduler   string       `json:"scheduler"`
	N           int          `json:"n"`
	EnergyJ     float64      `json:"energy_j"`
	Explanation *Explanation `json:"explanation"`
	TraceURL    string       `json:"trace_url"`
}

// handleExplain solves (or simulates, when an online scheduler is named)
// exactly like the compute endpoints — same canonical cache, so asking
// why costs nothing when the schedule is already cached — and answers
// with the per-gap race/sleep/crawl provenance instead of the schedule.
func (s *Server) handleExplain(rc *requestCtx, w http.ResponseWriter, r *http.Request) {
	var req TaskRequest
	if !s.decode(rc, w, r, &req) {
		return
	}
	var (
		resp *TaskResponse
		code int
		err  error
	)
	if req.Scheduler == "" || req.Scheduler == "auto" {
		resp, _, code, err = s.solveOne(r.Context(), rc.tel, &req, rc.root())
	} else {
		resp, _, code, err = s.simulateOne(r.Context(), rc.tel, &req, rc.root())
	}
	if err != nil {
		httpError(rc, w, code, err)
		return
	}
	rc.setProv(resp.prov)
	rc.record(resp.Scheduler, resp.N, resp.EnergyJ, len(resp.Misses))
	rc.writeJSON(w, http.StatusOK, ExplainResponse{
		Request:     rc.id,
		Scheduler:   resp.Scheduler,
		N:           resp.N,
		EnergyJ:     resp.EnergyJ,
		Explanation: resp.prov.explain(),
		TraceURL:    tracePath + rc.id,
	})
}

// BatchRequest fans many solve/simulate items over the worker pool.
type BatchRequest struct {
	Requests []BatchItemRequest `json:"requests"`
}

// BatchItemRequest is one batch item: Op selects the endpoint semantics.
type BatchItemRequest struct {
	// Op is "solve" (default) or "simulate".
	Op string `json:"op,omitempty"`
	TaskRequest
}

// BatchItemResult is one batch item's outcome: a response or an error.
// Item failures do not fail the batch.
type BatchItemResult struct {
	*TaskResponse
	Error string `json:"error,omitempty"`
}

// BatchResponse returns the item results in request order.
type BatchResponse struct {
	Request string            `json:"request"`
	Results []BatchItemResult `json:"results"`
}

// handleBatch runs the items on the internal/parallel worker pool. Each
// item computes on its own child recorder (pid = item index) and the
// children merge back in index order — the sweep engine's determinism
// pattern — so the batch's telemetry is identical at any pool width.
// Each item also gets its own wall span under the request root (wspan is
// append-safe across the pool's goroutines), so the trace shows the
// pool's real overlap.
func (s *Server) handleBatch(rc *requestCtx, w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(rc, w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		httpError(rc, w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		httpError(rc, w, http.StatusBadRequest, fmt.Errorf("batch of %d items exceeds the cap of %d", len(req.Requests), s.cfg.MaxBatch))
		return
	}

	children := make([]*telemetry.Recorder, len(req.Requests))
	for i := range children {
		children[i] = rc.tel.Child(i)
	}
	results, err := parallel.Map(r.Context(), s.cfg.Workers, len(req.Requests), func(ctx context.Context, i int) (BatchItemResult, error) {
		item := &req.Requests[i]
		id := fmt.Sprintf("%s.%d", rc.id, i)
		isp := rc.span("item")
		isp.NoteInt("index", int64(i))
		defer isp.End()
		var (
			resp *TaskResponse
			rerr error
		)
		switch item.Op {
		case "", "solve":
			resp, _, _, rerr = s.solveOne(ctx, children[i], &item.TaskRequest, isp)
		case "simulate":
			resp, _, _, rerr = s.simulateOne(ctx, children[i], &item.TaskRequest, isp)
		default:
			rerr = fmt.Errorf("unknown op %q (want solve or simulate)", item.Op)
		}
		if rerr != nil {
			isp.Note("error", rerr.Error())
			return BatchItemResult{Error: rerr.Error()}, nil
		}
		resp = stamp(resp, id)
		resp.TraceURL = tracePath + rc.id // items share the batch trace
		return BatchItemResult{TaskResponse: resp}, nil
	})
	if err != nil {
		// Only context cancellation (an expired batch budget — a
		// mid-flight shed) or a handler panic can land here.
		httpError(rc, w, errorCode(err), err)
		return
	}
	for _, c := range children {
		rc.tel.Merge(c)
	}

	var energy float64
	failed := 0
	for _, res := range results {
		if res.TaskResponse != nil {
			energy += res.EnergyJ
		} else {
			failed++
		}
	}
	rc.Set("sched", "batch")
	rc.Set("items", len(results))
	rc.Set("failed", failed)
	rc.Set("energy_j", energy)
	rc.Set("status", "ok")
	rc.tel.ObserveL(metricEnergy, rc.labels.route, energy)
	rc.tel.ObserveL(metricTasks, rc.labels.route, float64(len(results)))
	rc.writeJSON(w, http.StatusOK, BatchResponse{Request: rc.id, Results: results})
}
