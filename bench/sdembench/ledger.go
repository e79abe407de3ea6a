package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"sdem/internal/core"
	"sdem/internal/encode"
	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
	"sdem/internal/telemetry"
	"sdem/internal/telemetry/series"
)

// stageNames maps the server's wall-span names to their ledger metrics.
var stageNames = map[string]string{
	"request":   "serve.request_self_share",
	"admission": "serve.admission_share",
	"decode":    "serve.decode_share",
	"cache":     "serve.cache_self_share",
	"solve":     "serve.solve_share",
	"encode":    "serve.encode_share",
	"write":     "serve.write_share",
}

// stageLedger sums one client's per-request span self times, read back
// from /debug/trace/{id}?format=wall through the same handler.
type stageLedger struct {
	n, missed int64
	clientMs  float64
	client    *series.Sketch     // client-side request latency, ms
	selfMs    map[string]float64 // span name → Σ self time, ms
	solves    int64
	solve     *series.Sketch // solve span durations, ms
}

func newStageLedger() *stageLedger {
	return &stageLedger{
		client: newSketch(),
		selfMs: map[string]float64{},
		solve:  newSketch(),
	}
}

// wallTrace is the part of a wspan JSON record the ledger reads.
type wallTrace struct {
	Spans []struct {
		Name   string `json:"name"`
		Parent int    `json:"parent"`
		DurNs  int64  `json:"dur_ns"`
	} `json:"spans"`
}

// fetch reads back the span tree of the request whose response carried
// traceparent, and adds its self times; dur is the client's latency.
func (g *stageLedger) fetch(h http.Handler, traceparent string, dur time.Duration) {
	if len(traceparent) < 35 {
		g.missed++
		return
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace/"+traceparent[3:35]+"?format=wall", nil))
	var tr wallTrace
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &tr) != nil {
		g.missed++
		return
	}
	// A span's self time is its duration minus its children's.
	self := make([]int64, len(tr.Spans))
	for i, sp := range tr.Spans {
		self[i] += sp.DurNs
		if sp.Parent >= 0 {
			self[sp.Parent] -= sp.DurNs
		}
	}
	for i, sp := range tr.Spans {
		g.selfMs[sp.Name] += float64(self[i]) / 1e6
		if sp.Name == "solve" {
			g.solves++
			g.solve.Observe(float64(sp.DurNs) / 1e6)
		}
	}
	g.n++
	g.clientMs += ms(dur)
	g.client.Observe(ms(dur))
}

func (g *stageLedger) merge(o *stageLedger) {
	g.n += o.n
	g.missed += o.missed
	g.clientMs += o.clientMs
	g.solves += o.solves
	for k, v := range o.selfMs {
		g.selfMs[k] += v
	}
	// Every sketch shares sketchAlpha, so the merges cannot fail.
	_ = g.client.Merge(o.client)
	_ = g.solve.Merge(o.solve)
}

func (g *stageLedger) clientP99() float64 { return g.client.Quantile(0.99) }

// solveMeanMs is the mean duration of a solve stage (cache misses only).
func (g *stageLedger) solveMeanMs() float64 {
	if g.solves == 0 {
		return 0
	}
	return g.selfMs["solve"] / float64(g.solves)
}

// report sets the stage shares of the mean client latency meanMs.
func (g *stageLedger) report(v map[string]float64, meanMs float64) {
	tracked := 0.0
	for span, name := range stageNames {
		share := g.selfMs[span] / float64(g.n) / meanMs
		v[name] = share
		tracked += share
	}
	v["serve.untracked_share"] = 1 - tracked
	v["serve.solve_p99_share"] = tailShare(g.solve, float64(g.solves)/float64(g.n), g.clientP99())
}

// tailShare is the share of the client's p99 latency spent in a stage
// that frac of the requests reach: the stage's quantile at the rank the
// client's p99 has among those requests, taking the slowest requests to
// be the ones that reach the stage, over the client's p99.
func tailShare(stage *series.Sketch, frac, clientP99 float64) float64 {
	if frac <= 0 || clientP99 <= 0 {
		return 0
	}
	return stage.Quantile(1-0.01/frac) / clientP99
}

// counterKey identifies one labelled counter of the server's recorder.
type counterKey struct{ name, labels string }

// counters is a reading of the counters /metrics exposes.
type counters map[counterKey]int64

// recorderCounters snapshots a recorder's counters. The server's root
// recorder is the source its /metrics exposition renders.
func recorderCounters(r *telemetry.Recorder) counters {
	c := counters{}
	for _, p := range r.Snapshot().Counters {
		c[counterKey{p.Name, p.Labels}] = p.Value
	}
	return c
}

func (c counters) minus(o counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// sum adds the counters called name whose labels contain label.
func (c counters) sum(name, label string) int64 {
	var s int64
	for k, v := range c {
		if k.name == name && strings.Contains(k.labels, label) {
			s += v
		}
	}
	return s
}

// frac is sum(name, label) over sum(name, "").
func (c counters) frac(name, label string) float64 {
	all := c.sum(name, "")
	if all == 0 {
		return 0
	}
	return float64(c.sum(name, label)) / float64(all)
}

// callStats times one public function over the replay.
type callStats struct {
	n       int
	totalMs float64
	sk      *series.Sketch
}

func (c *callStats) add(d time.Duration) {
	if c.sk == nil {
		c.sk = newSketch()
	}
	c.n++
	c.totalMs += ms(d)
	c.sk.Observe(ms(d))
}

func (c *callStats) mean() float64 {
	if c.n == 0 {
		return 0
	}
	return c.totalMs / float64(c.n)
}

// Solver classes of the replay.
const (
	classOnline        = "online"
	classCommonRelease = "commonrelease"
	classAgreeable     = "agreeable"
)

// classStats are the direct-call timings and schedule counts of one
// solver class in a replay.
type classStats struct {
	// share is the class's fraction of the round's requests.
	share         float64
	queue         []request // the class's distinct sets, in order
	solver, audit callStats
}

// perRequest is the mean of f over the classes, weighted by share.
func perRequest(classes map[string]*classStats, f func(c *classStats) float64) float64 {
	var sum float64
	for _, c := range classes {
		sum += c.share * f(c)
	}
	return sum
}

// replayStats are the timings of a replay and the shape of the
// schedules it produced.
type replayStats struct {
	key                     callStats
	classes                 map[string]*classStats
	segments, sleeps, tasks float64
}

// class names the solver a request of sp reaches on a cache miss.
func class(sp serveSpec, ts task.Set) string {
	switch {
	case sp.op == "simulate":
		return classOnline
	case ts.Classify() == task.ModelAgreeable:
		return classAgreeable
	default:
		return classCommonRelease
	}
}

// replay times the public functions a request reaches on a cache miss —
// encode.CanonicalKey, online.Runtime.Schedule on one retained Runtime
// or core.SolveCtx, and schedule.Audit — on reqs' distinct sets until
// budget has elapsed. It takes one set of each solver class in turn, so
// a rare class is timed however short the budget.
func replay(sp serveSpec, reqs []request, sys power.System, budget time.Duration) (*replayStats, error) {
	rs := &replayStats{classes: map[string]*classStats{}}
	seen := map[int]bool{}
	for _, r := range reqs {
		cls := class(sp, r.tasks)
		c := rs.classes[cls]
		if c == nil {
			c = &classStats{}
			rs.classes[cls] = c
		}
		c.share += 1 / float64(len(reqs))
		if r.hot >= 0 {
			if seen[r.hot] {
				continue
			}
			seen[r.hot] = true
		}
		c.queue = append(c.queue, r)
	}
	names := make([]string, 0, len(rs.classes))
	for cls := range rs.classes {
		names = append(names, cls)
	}
	sort.Strings(names)

	var rt online.Runtime
	start := time.Now()
	for i, more := 0, true; more && time.Since(start) <= budget; i++ {
		more = false
		for _, cls := range names {
			c := rs.classes[cls]
			if i >= len(c.queue) {
				continue
			}
			more = true
			r := c.queue[i]
			t0 := time.Now()
			encode.CanonicalKey(sp.op, sp.scheduler, r.sched, r.tasks, sys)
			rs.key.add(time.Since(t0))

			t0 = time.Now()
			var sched *schedule.Schedule
			if cls == classOnline {
				res, err := rt.Schedule(r.tasks, sys, online.Options{Cores: sys.Cores})
				if err != nil {
					return nil, fmt.Errorf("replaying online.Runtime.Schedule: %w", err)
				}
				sched = res.Schedule
			} else {
				sol, err := core.SolveCtx(context.Background(), r.tasks, sys, nil)
				if err != nil {
					return nil, fmt.Errorf("replaying core.SolveCtx: %w", err)
				}
				sched = sol.Schedule
			}
			c.solver.add(time.Since(t0))

			t0 = time.Now()
			b := schedule.Audit(sched, sys)
			c.audit.add(time.Since(t0))
			for _, segs := range sched.Cores {
				rs.segments += float64(len(segs))
			}
			rs.sleeps += float64(b.CoreSleeps + b.MemorySleeps)
			rs.tasks += float64(len(r.tasks))
		}
	}
	return rs, nil
}

// report sets the direct-call shares of the mean client latency meanMs:
// a function's share is its mean call time times the fraction of
// requests that reach it (missFrac of them miss the cache). solveMs is
// the mean solve stage the span trees measured.
func (rs *replayStats) report(v map[string]float64, meanMs, clientP99, missFrac, solveMs float64) {
	solverShare := func(cls string) float64 {
		if c := rs.classes[cls]; c != nil {
			return c.solver.mean() * c.share * missFrac / meanMs
		}
		return 0
	}
	v["encode.canonical_key_share"] = rs.key.mean() / meanMs
	v["online.schedule_share"] = solverShare(classOnline)
	v["commonrelease.solve_share"] = solverShare(classCommonRelease)
	v["agreeable.solve_share"] = solverShare(classAgreeable)
	if ag := rs.classes[classAgreeable]; ag != nil && ag.solver.n > 0 {
		v["agreeable.solve_p99_share"] = tailShare(ag.solver.sk, ag.share*missFrac, clientP99)
	}
	audit := perRequest(rs.classes, func(c *classStats) float64 { return c.audit.mean() })
	v["schedule.audit_share"] = audit * missFrac / meanMs
	if solveMs > 0 {
		solver := perRequest(rs.classes, func(c *classStats) float64 { return c.solver.mean() })
		v["serve.solver_share"] = (solver + audit) / solveMs
	}
	if rs.tasks > 0 {
		v["sim.segments_per_task"] = rs.segments / rs.tasks
		v["sim.sleeps_per_task"] = rs.sleeps / rs.tasks
	}
}

// runtimeSample is a reading of the Go runtime's counters.
type runtimeSample struct {
	cpu    time.Duration
	m      []metrics.Sample
	numGC  uint32
	pauses [256]uint64 // runtime.MemStats.PauseNs
}

// runtimeMetrics are the runtime/metrics read around a timed phase.
var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := runtimeSample{cpu: cpuTime(), m: make([]metrics.Sample, len(runtimeMetrics))}
	for i, name := range runtimeMetrics {
		s.m[i].Name = name
	}
	metrics.Read(s.m)
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	s.numGC, s.pauses = mst.NumGC, mst.PauseNs
	return s
}

// report sets the runtime.* metrics for the ops operations done
// between the samples before and a.
func (a runtimeSample) report(v map[string]float64, before runtimeSample, ops float64) {
	b := before
	v["runtime.cpu_ms_per_op"] = ms(a.cpu-b.cpu) / ops
	v["runtime.allocs_per_op"] = float64(a.m[0].Value.Uint64()-b.m[0].Value.Uint64()) / ops
	v["runtime.alloc_kb_per_op"] = float64(a.m[1].Value.Uint64()-b.m[1].Value.Uint64()) / ops / 1024
	v["runtime.gc_cycles_per_kop"] = float64(a.m[2].Value.Uint64()-b.m[2].Value.Uint64()) / ops * 1000

	// PauseNs is a ring of the last 256 pauses, GC k at (k+255)%256.
	first := b.numGC + 1
	if a.numGC >= 256 && a.numGC-255 > first {
		first = a.numGC - 255
	}
	var pauseMax float64
	for k := first; k <= a.numGC; k++ {
		pauseMax = math.Max(pauseMax, float64(a.pauses[(k+255)%256])/1e6)
	}
	v["runtime.gc_pause_max_ms"] = pauseMax

	// The mean scheduling latency from the histogram's delta, each
	// bucket counted at its midpoint.
	ha, hb := a.m[3].Value.Float64Histogram(), b.m[3].Value.Float64Histogram()
	var n, sum float64
	for i, c := range ha.Counts {
		c -= hb.Counts[i]
		lo, hi := ha.Buckets[i], ha.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		n += float64(c)
		sum += float64(c) * (lo + hi) / 2
	}
	if n > 0 {
		v["runtime.sched_latency_mean_us"] = sum / n * 1e6
	}
}
