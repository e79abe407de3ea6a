package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sdem/internal/power"
	"sdem/internal/serve"
)

const (
	// clients is the closed loop's width: each client sends its next
	// request as soon as the previous one returns. Two is the CPU count
	// of the machine the bounds were calibrated on.
	clients = 2
	// setups is how many times a run builds a server and warms it up;
	// setup_s is the median.
	setups = 8
)

// The serve workloads (bench/README.md gives the reasons for each).
var (
	hotSimulate = serveSpec{
		route: "/v1/simulate", op: "simulate", scheduler: "sdem-on",
		hotFrac: 0.7, hotSets: 8, round: roundSize, warm: roundSize,
		draw: synthetic(30),
	}
	coldSimulate = serveSpec{
		route: "/v1/simulate", op: "simulate", scheduler: "sdem-on",
		schedEvery: 4, round: roundSize, warm: 512,
		draw: synthetic(60),
	}
	offlineSolve = serveSpec{
		route: "/v1/solve", op: "solve", scheduler: "auto",
		round: roundSize, warm: 512,
		draw: offlineMix,
	}
)

// serverConfig mirrors sdemd's defaults (8 cores, a 4096-entry cache,
// default admission gates) with the request log formatted but discarded.
// Only traced runs sample wall-clock span trees.
func serverConfig(traced bool) serve.Config {
	cfg := serve.Config{
		System:      power.DefaultSystem(),
		CacheSize:   4096,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		TraceSample: -1,
	}
	if traced {
		cfg.TraceSample = 1
	}
	return cfg
}

// outcome is one answered request.
type outcome struct {
	code int
	body []byte
	op   opSample
}

// loop drives one handler with a closed loop of clients. Each client
// times the host between requests when host is set. A traced loop
// fetches every request's span tree into the client's ledger.
type loop struct {
	h       http.Handler
	route   string
	epoch   time.Time
	host    *hostMeter
	ledgers []*stageLedger // one per client; nil when untraced
}

func newLoop(h http.Handler, route string, epoch time.Time, host *hostMeter, traced bool) *loop {
	l := &loop{h: h, route: route, epoch: epoch, host: host}
	if traced {
		for c := 0; c < clients; c++ {
			l.ledgers = append(l.ledgers, newStageLedger())
		}
	}
	return l
}

// run sends reqs in order, sharing one index among the clients, until
// all are answered or budget has elapsed. It returns the number answered
// (a prefix of reqs, answers in out), the span of wall time it took, and
// the client time spent idle waiting for the last client to finish.
func (l *loop) run(reqs []request, out []outcome, budget time.Duration) (done int, span opSample, idle time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	finish := make([]time.Duration, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lastRef time.Time
			for time.Since(start) < budget {
				if l.host != nil {
					l.host.sampleEvery(&lastRef)
				}
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					break
				}
				out[i] = l.do(reqs[i].body, c)
			}
			finish[c] = time.Since(start)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, f := range finish {
		idle += elapsed - f
	}
	return min(int(next.Load()), len(reqs)), opSample{start: start.Sub(l.epoch), dur: elapsed}, idle
}

// do sends one request through the handler chain. Only ServeHTTP is
// timed; building the request and recorder is the client's own work.
func (l *loop) do(body []byte, c int) outcome {
	req := httptest.NewRequest(http.MethodPost, l.route, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t0 := time.Now()
	l.h.ServeHTTP(rec, req)
	dur := time.Since(t0)
	if l.ledgers != nil {
		l.ledgers[c].fetch(l.h, rec.Header().Get("Traceparent"), dur)
	}
	return outcome{code: rec.Code, body: rec.Body.Bytes(), op: opSample{start: t0.Sub(l.epoch), dur: dur}}
}

// serveWorkload returns the runner of one serve workload.
func serveWorkload(sp serveSpec) workloadRun {
	return func(o options) (int64, int64, map[string]float64, error) {
		return runServe(sp, o)
	}
}

// runServe sets up a server several times (timing each set-up: server
// construction plus a warm-up on the first sp.warm requests of the
// corpus, round 0), then drives fresh rounds drawn from o.seed through
// the last one for o.seconds of timed phase. Each round is generated
// before, and checked after, its timed phase. energy_per_task_j is the
// corpus's, and every set-up must answer it with the same energy. The
// times are scaled to reference speed by the host's slowdown.
func runServe(sp serveSpec, o options) (int64, int64, map[string]float64, error) {
	sys := power.DefaultSystem()
	epoch := time.Now()
	host := newHostMeter(epoch)
	corpusHot, err := hotRequests(sp, corpusSeed, sys)
	if err != nil {
		return 0, 0, nil, err
	}
	round0, err := genRound(sp, corpusSeed, 0, corpusHot, sys)
	if err != nil {
		return 0, 0, nil, err
	}
	hot, err := hotRequests(sp, o.seed, sys)
	if err != nil {
		return 0, 0, nil, err
	}
	var (
		srv        *serve.Server
		l          *loop
		setupSpans []opSample
		energy     float64
	)
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		srv = serve.New(serverConfig(o.trace))
		l = newLoop(srv.Handler(), sp.route, epoch, host, o.trace)
		out := make([]outcome, sp.warm)
		n, _, _ := l.run(round0[:sp.warm], out, time.Duration(math.MaxInt64))
		setupSpans = append(setupSpans, opSample{start: t0.Sub(epoch), dur: time.Since(t0)})
		warm := tally{seenHot: map[int]bool{}}
		if err := warm.add(round0, out[:n], sys); err != nil {
			return 0, 0, nil, fmt.Errorf("warm-up: %w", err)
		}
		if warm.failed > 0 {
			return 0, 0, nil, fmt.Errorf("check: warm-up: %d of %d corpus requests were not answered 200", warm.failed, n)
		}
		e := warm.energy / warm.tasks
		if k > 0 && e != energy {
			return 0, 0, nil, fmt.Errorf("check: set-up %d answered the corpus with %.17g J per task, set-up 0 with %.17g", k, e, energy)
		}
		energy = e
	}
	if o.trace {
		l = newLoop(srv.Handler(), sp.route, epoch, host, true) // drop the warm-up's spans
	}

	t := tally{seenHot: map[int]bool{}}
	var (
		ops, spans  []opSample
		timed, idle time.Duration
		gen         time.Duration
		before      = recorderCounters(srv.Telemetry())
		rt0         = readRuntime()
	)
	for round := 1; timed < o.seconds; round++ {
		g0 := time.Now()
		reqs, err := genRound(sp, o.seed, round, hot, sys)
		gen += time.Since(g0)
		if err != nil {
			return t.attempted, t.failed, nil, err
		}
		out := make([]outcome, len(reqs))
		n, span, id := l.run(reqs, out, o.seconds-timed)
		spans = append(spans, span)
		timed += span.dur
		idle += id
		for _, oc := range out[:n] {
			ops = append(ops, oc.op)
		}
		if err := t.add(reqs, out[:n], sys); err != nil {
			return t.attempted, t.failed, nil, fmt.Errorf("round %d: %w", round, err)
		}
	}
	rt1 := readRuntime()
	after := recorderCounters(srv.Telemetry())

	slow := host.profile()
	ref, wall := summarize(ops, spans, 1, slow), summarize(ops, spans, 1, nil)
	v := map[string]float64{
		"setup_s":           setupSeconds(setupSpans, slow),
		"ops_per_s":         ref.opsPerS,
		"p50_ms":            ref.p50,
		"p99_ms":            ref.p99,
		"energy_per_task_j": energy,
	}
	fmt.Fprintf(os.Stderr, "%s: %d requests over %.2fs timed, %d failed; wall clock %.5g req/s, p50 %.4g ms, p99 %.4g ms; host slowdown %.3g\n",
		o.workload, t.attempted, timed.Seconds(), t.failed, wall.opsPerS, wall.p50, wall.p99, slow.typical(spans))
	if !o.trace {
		return t.attempted, t.failed, v, nil
	}

	// The per-layer ledger: stage self times from the span trees, direct
	// calls into each module replayed on round 0, counters, runtime.
	lg := newStageLedger()
	for _, c := range l.ledgers {
		lg.merge(c)
	}
	// A client the host stalls for a few milliseconds can find its span
	// tree already evicted from the 64-entry trace ring by the other
	// client's requests; the ledger is taken over the trees it fetched.
	fmt.Fprintf(os.Stderr, "%s: %d of %d span trees fetched\n", o.workload, lg.n, lg.n+lg.missed)
	if lg.missed*100 > lg.n {
		return t.attempted, t.failed, nil, fmt.Errorf("%d of %d span trees could not be fetched", lg.missed, lg.n+lg.missed)
	}
	meanMs := lg.clientMs / float64(lg.n)
	v["bench.op_mean_ms"] = meanMs
	v["bench.gen_share"] = gen.Seconds() / timed.Seconds()
	v["bench.idle_frac"] = idle.Seconds() / (clients * timed.Seconds())
	v["bench.host_slowdown"] = slow.typical(spans)
	lg.report(v, meanMs)
	v["serve.resp_kb"] = float64(t.respBytes) / float64(t.attempted) / 1024
	d := after.minus(before)
	missFrac := d.frac("sdem.serve.cache", "result=miss")
	v["serve.cache_hit_frac"] = 1 - missFrac
	v["serve.shed_frac"] = float64(d.sum("sdem.serve.shed", "")) / float64(d.sum("sdem.serve.requests", ""))
	if plans := float64(d.sum("sdem.solver.online.plans", "")); plans > 0 {
		v["online.skipped_solve_frac"] = float64(d.sum("sdem.solver.online.skipped_solves", "")) / plans
		v["online.plan_reuse_frac"] = float64(d.sum("sdem.solver.online.plan_reuse", "")) / plans
	}
	rp, err := replay(sp, round0, sys, o.seconds*3/20)
	if err != nil {
		return t.attempted, t.failed, nil, err
	}
	rp.report(v, meanMs, lg.clientP99(), missFrac, lg.solveMeanMs())
	ovh, err := traceOverhead(sp, round0[:sp.warm])
	if err != nil {
		return t.attempted, t.failed, nil, err
	}
	v["serve.trace_overhead_frac"] = ovh
	rt1.report(v, rt0, float64(t.attempted))
	return t.attempted, t.failed, v, nil
}

// traceOverhead measures what server-side tracing adds to the median
// request: reqs run through fresh untraced and traced servers, twice
// each in alternation, and the pooled p50s are compared.
func traceOverhead(sp serveSpec, reqs []request) (float64, error) {
	var durs [2][]float64 // untraced, traced, in ms
	for pass := 0; pass < 2; pass++ {
		for traced := 0; traced < 2; traced++ {
			l := newLoop(serve.New(serverConfig(traced == 1)).Handler(), sp.route, time.Now(), nil, false)
			out := make([]outcome, len(reqs))
			n, _, _ := l.run(reqs, out, time.Duration(math.MaxInt64))
			for _, oc := range out[:n] {
				if oc.code != http.StatusOK {
					return 0, fmt.Errorf("trace overhead: request answered %d", oc.code)
				}
				durs[traced] = append(durs[traced], ms(oc.op.dur))
			}
		}
	}
	return median(durs[1])/median(durs[0]) - 1, nil
}
