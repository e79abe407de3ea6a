// Command sdemload drives an sdemd instance with synthetic solve /
// simulate / execute traffic and reports what the service did under
// pressure: latency quantiles of admitted requests, throughput, the
// shed rate, and the 5xx count. It is the measurement half of the
// overload story — sdemd owns admission control, load shedding and the
// coalescing schedule cache; sdemload produces calibrated load and
// checks the contract held.
//
// Two load shapes:
//
//	-concurrency 16              closed loop: 16 workers, each issuing
//	                             the next request when the last returns
//	-rate 200                    open loop: 200 req/s regardless of
//	                             completions (the shape that overloads)
//
// The task-set mix is seeded and replayable: -hot is the fraction of
// requests drawn from a small pool of -hot-sets identical task sets
// (these should hit the schedule cache), the rest are unique per
// request (these must miss). 429 responses are retried with
// exponential backoff, deterministic jitter, and the server's
// Retry-After hint; retries never count against the latency quantiles,
// which measure admitted work only.
//
// -slow N adds N pathological clients that dribble a request body one
// byte at a time — they exist to verify the server's read timeouts cut
// them off instead of letting them pin connections.
//
// -trace mints a W3C traceparent header per attempt and, after each
// admitted response, pulls the server's wall-clock span tree back from
// /debug/trace by the trace ID it minted; -trace-out appends those
// trees as JSONL for cmd/sdemtrace to verify and aggregate.
//
// -window N buckets logical requests into fixed-size windows keyed by
// the request ordinal — the same window-clock rule the telemetry series
// package follows, so window membership replays exactly under a fixed
// seed regardless of worker interleaving — and adds per-window
// throughput, shed rate, and latency quantiles to the JSON report.
//
// -campaign applies the long-haul preset (a million seeded simulate
// requests, closed loop, 70% hot mix, ten ordinal windows; explicit
// flags still win) and prints a `go test -bench`-shaped summary line so
// cmd/benchreport can parse the run and merge it into a BENCH baseline:
//
//	sdemload -campaign -addr $ADDR | go run ./cmd/benchreport -merge BENCH.json -out BENCH.json
//
// Exit status is the CI contract: nonzero when -require-shed saw no
// shedding, when 5xx responses exceed -max-5xx, or when nothing
// succeeded at all. -out writes the full JSON report for trending.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdem/internal/stats"
	"sdem/internal/task"
	"sdem/internal/telemetry/wspan"
	"sdem/internal/workload"
)

type options struct {
	addr        string
	op          string
	scheduler   string
	duration    time.Duration
	requests    int64
	concurrency int
	rate        float64
	tasks       int
	seed        int64
	hot         float64
	hotSets     int
	budgetMs    int64
	retries     int
	backoff     time.Duration
	slow        int
	out         string
	trace       bool
	traceOut    string
	requireShed bool
	max5xx      int64
	window      int64
	campaign    bool
}

// report is the JSON document -out writes and the summary the process
// prints; BENCH trajectories and CI gates read these fields.
type report struct {
	Op          string  `json:"op"`
	Mode        string  `json:"mode"`
	Concurrency int     `json:"concurrency,omitempty"`
	RatePerSec  float64 `json:"rate_per_sec,omitempty"`
	DurationS   float64 `json:"duration_s"`
	Requests    int64   `json:"requests"`
	OK          int64   `json:"ok"`
	Shed        int64   `json:"shed"`
	Retries     int64   `json:"retries"`
	Errors4xx   int64   `json:"errors_4xx"`
	Errors5xx   int64   `json:"errors_5xx"`
	Transport   int64   `json:"transport_errors"`
	ShedRate    float64 `json:"shed_rate"`
	Throughput  float64 `json:"throughput_rps"`
	LatencyP50  float64 `json:"latency_p50_ms"`
	LatencyP90  float64 `json:"latency_p90_ms"`
	LatencyP99  float64 `json:"latency_p99_ms"`
	LatencyMax  float64 `json:"latency_max_ms"`
	SlowClients int     `json:"slow_clients,omitempty"`
	SlowCutoffs int64   `json:"slow_cutoffs,omitempty"`
	Traces      int64   `json:"traces_fetched,omitempty"`
	TraceMisses int64   `json:"trace_misses,omitempty"`

	WindowSize int64        `json:"window_size,omitempty"`
	Windows    []windowStat `json:"windows,omitempty"`
}

// windowStat is one ordinal window of the run: -window logical requests
// grouped by issue ordinal, so a fixed seed reproduces the same window
// membership on every run. Throughput is priced over the window's
// wall-clock completion span and is the one field expected to move
// between runs.
type windowStat struct {
	Window     int64   `json:"window"`
	Requests   int64   `json:"requests"`
	OK         int64   `json:"ok"`
	Shed       int64   `json:"shed"`
	ShedRate   float64 `json:"shed_rate"`
	Throughput float64 `json:"throughput_rps"`
	LatencyP50 float64 `json:"latency_p50_ms"`
	LatencyP99 float64 `json:"latency_p99_ms"`
}

// counters aggregates outcomes across workers; latencies (ms) are the
// per-attempt wall times of 2xx responses only.
type counters struct {
	mu        sync.Mutex
	latencies []float64

	requests  atomic.Int64 // logical requests issued (retries excluded)
	ok        atomic.Int64
	shed      atomic.Int64 // 429s observed, including retried ones
	retries   atomic.Int64
	err4xx    atomic.Int64
	err5xx    atomic.Int64
	transport atomic.Int64
}

func (c *counters) observe(ms float64) {
	c.mu.Lock()
	c.latencies = append(c.latencies, ms)
	c.mu.Unlock()
}

// loadWindows buckets logical requests into fixed-size windows keyed by
// the issue ordinal — the window clock the telemetry series package
// mandates: never wall time, so window membership replays exactly under
// a fixed seed no matter how the workers interleave. Wall time enters
// only as each window's completion span, which prices the per-window
// throughput. A nil *loadWindows disables windowing; every method is
// nil-safe.
type loadWindows struct {
	size  int64
	start time.Time
	mu    sync.Mutex
	ws    map[int64]*winAgg
}

type winAgg struct {
	requests, ok, shed int64
	lat                []float64
	t0, t1             float64 // completion span, wall seconds since run start
	seen               bool
}

func newLoadWindows(size int64, start time.Time) *loadWindows {
	if size <= 0 {
		return nil
	}
	return &loadWindows{size: size, start: start, ws: map[int64]*winAgg{}}
}

// agg returns request n's window, creating it on first touch. Callers
// hold w.mu.
func (w *loadWindows) agg(n int64) *winAgg {
	idx := (n - 1) / w.size
	a := w.ws[idx]
	if a == nil {
		a = &winAgg{}
		w.ws[idx] = a
	}
	return a
}

// done records request n's terminal outcome into its ordinal window.
func (w *loadWindows) done(n int64, ok bool, ms float64) {
	if w == nil {
		return
	}
	//lint:allow telemetrycheck: the completion span prices per-window throughput only; window membership is ordinal
	at := time.Since(w.start).Seconds()
	w.mu.Lock()
	defer w.mu.Unlock()
	a := w.agg(n)
	a.requests++
	if ok {
		a.ok++
		a.lat = append(a.lat, ms)
	}
	if !a.seen || at < a.t0 {
		a.t0 = at
	}
	if !a.seen || at > a.t1 {
		a.t1 = at
	}
	a.seen = true
}

// shed counts one 429 observation against request n's window, retried
// attempts included — the same convention the run-level Shed counter
// uses.
func (w *loadWindows) shed(n int64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.agg(n).shed++
	w.mu.Unlock()
}

// stats flattens the windows into report entries, ordered by window
// index.
func (w *loadWindows) stats() []windowStat {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	idxs := make([]int64, 0, len(w.ws))
	for i := range w.ws {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	out := make([]windowStat, 0, len(idxs))
	for _, i := range idxs {
		a := w.ws[i]
		sort.Float64s(a.lat)
		s := windowStat{
			Window:     i,
			Requests:   a.requests,
			OK:         a.ok,
			Shed:       a.shed,
			LatencyP50: stats.Quantile(a.lat, 0.50),
			LatencyP99: stats.Quantile(a.lat, 0.99),
		}
		if a.requests > 0 {
			s.ShedRate = float64(a.shed) / float64(a.requests)
		}
		if span := a.t1 - a.t0; span > 0 {
			s.Throughput = float64(a.ok) / span
		}
		out = append(out, s)
	}
	return out
}

// traceSink pulls sealed span trees back from the server's /debug/trace
// surface and appends them as JSONL. A nil sink disables tracing; w may
// be nil (bare -trace verifies the round-trip and counts, keeps nothing).
type traceSink struct {
	base string // http://addr
	mu   sync.Mutex
	w    io.Writer

	fetched atomic.Int64
	missed  atomic.Int64 // unsampled, evicted before fetch, or fetch failed
}

// collect fetches one trace by the 32-hex ID sdemload itself minted for
// the request's traceparent header; the server adopted it, so the ring
// resolves it directly without parsing the response body.
func (s *traceSink) collect(ctx context.Context, client *http.Client, traceID string) {
	if s == nil || traceID == "" {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		s.base+"/debug/trace/"+traceID+"?format=wall", nil)
	if err != nil {
		s.missed.Add(1)
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		s.missed.Add(1)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		s.missed.Add(1)
		return
	}
	line, err := io.ReadAll(resp.Body)
	if err != nil {
		s.missed.Add(1)
		return
	}
	if s.w != nil {
		s.mu.Lock()
		_, err = s.w.Write(line)
		s.mu.Unlock()
		if err != nil {
			s.missed.Add(1)
			return
		}
	}
	s.fetched.Add(1)
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "sdemd address (host:port)")
	flag.StringVar(&o.op, "op", "solve", "operation: solve|simulate|execute")
	flag.StringVar(&o.scheduler, "scheduler", "", "scheduler field of the request (default: endpoint default)")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "how long to generate load")
	flag.Int64Var(&o.requests, "requests", 0, "stop after this many logical requests (0 = until -duration)")
	flag.IntVar(&o.concurrency, "concurrency", 8, "closed-loop worker count (ignored when -rate > 0)")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
	flag.IntVar(&o.tasks, "tasks", 12, "tasks per generated set")
	flag.Int64Var(&o.seed, "seed", 1, "master seed: task sets, mix and jitter all derive from it")
	flag.Float64Var(&o.hot, "hot", 0.5, "fraction of requests drawn from the hot task-set pool in [0,1]")
	flag.IntVar(&o.hotSets, "hot-sets", 4, "distinct task sets in the hot pool")
	flag.Int64Var(&o.budgetMs, "budget-ms", 0, "X-Budget-Ms deadline budget sent with every request (0 = server default)")
	flag.IntVar(&o.retries, "retries", 3, "max retries after a 429 (0 disables)")
	flag.DurationVar(&o.backoff, "backoff", 25*time.Millisecond, "base retry backoff (doubles per attempt, jittered, Retry-After wins)")
	flag.IntVar(&o.slow, "slow", 0, "pathological clients dribbling request bytes to probe read timeouts")
	flag.StringVar(&o.out, "out", "", "write the JSON report here")
	flag.BoolVar(&o.trace, "trace", false, "send W3C traceparent headers and pull each admitted request's wall-clock span tree back from /debug/trace")
	flag.StringVar(&o.traceOut, "trace-out", "", "append fetched span trees as JSONL here (implies -trace; feed to sdemtrace)")
	flag.BoolVar(&o.requireShed, "require-shed", false, "exit nonzero unless the server shed at least one request")
	flag.Int64Var(&o.max5xx, "max-5xx", 0, "exit nonzero when 5xx responses exceed this count")
	flag.Int64Var(&o.window, "window", 0, "per-window report bucket in logical requests (0 disables; the window clock is the request ordinal, never wall time)")
	flag.BoolVar(&o.campaign, "campaign", false, "long-haul preset: a million seeded closed-loop solve requests in ten ordinal windows, plus a benchreport-compatible summary line (explicit flags still win)")
	flag.Parse()
	if o.campaign {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		applyCampaign(&o, set)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "sdemload:", err)
		os.Exit(1)
	}
}

// applyCampaign fills the campaign preset into every option the user
// did not set explicitly: one million logical simulate requests (the
// synthetic generator emits general task sets, which /v1/solve's
// offline-optimal scheduler rejects by design), closed loop at 32
// workers, a 70% hot mix over 8 cached sets, ordinal windows of a tenth
// of the run, and a duration ceiling high enough that the request
// budget — not the clock — ends the run.
func applyCampaign(o *options, set map[string]bool) {
	if !set["op"] {
		o.op = "simulate"
	}
	if !set["requests"] {
		o.requests = 1_000_000
	}
	if !set["duration"] {
		o.duration = time.Hour
	}
	if !set["concurrency"] {
		o.concurrency = 32
	}
	if !set["hot"] {
		o.hot = 0.7
	}
	if !set["hot-sets"] {
		o.hotSets = 8
	}
	if !set["window"] && o.requests > 0 {
		o.window = o.requests / 10
	}
}

func run(o options) error {
	path, err := opPath(o.op)
	if err != nil {
		return err
	}
	if o.hot < 0 || o.hot > 1 {
		return fmt.Errorf("-hot %v outside [0,1]", o.hot)
	}
	if o.window < 0 {
		return fmt.Errorf("-window %d must be >= 0", o.window)
	}
	if o.hotSets <= 0 {
		o.hotSets = 1
	}
	hot, err := hotBodies(o)
	if err != nil {
		return err
	}
	url := "http://" + o.addr + path
	var sink *traceSink
	if o.trace || o.traceOut != "" {
		sink = &traceSink{base: "http://" + o.addr}
		if o.traceOut != "" {
			f, err := os.Create(o.traceOut)
			if err != nil {
				return err
			}
			defer f.Close()
			sink.w = f
		}
	}
	client := &http.Client{
		Timeout: o.duration + 30*time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        4 * o.concurrency,
			MaxIdleConnsPerHost: 4 * o.concurrency,
		},
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.duration)
	defer cancel()

	var c counters
	var slowCutoffs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < o.slow; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			slowReader(ctx, o.addr, path, &slowCutoffs)
		}(i)
	}

	var ordinal atomic.Int64
	next := func() (int64, bool) {
		n := ordinal.Add(1)
		if o.requests > 0 && n > o.requests {
			return 0, false
		}
		return n, ctx.Err() == nil
	}

	//lint:allow telemetrycheck: load generation is a wall-clock activity by definition — sdemload measures a live server, it never touches schedule math
	start := time.Now()
	win := newLoadWindows(o.window, start)
	if o.rate > 0 {
		interval := time.Duration(float64(time.Second) / o.rate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
	open:
		for {
			select {
			case <-ctx.Done():
				break open
			case <-ticker.C:
				n, ok := next()
				if !ok {
					break open
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					issue(ctx, client, url, hot, o, n, &c, sink, win)
				}()
			}
		}
	} else {
		for i := 0; i < o.concurrency; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					n, ok := next()
					if !ok {
						return
					}
					issue(ctx, client, url, hot, o, n, &c, sink, win)
				}
			}()
		}
	}
	wg.Wait()
	//lint:allow telemetrycheck: closes the wall-clock measurement opened at start
	elapsed := time.Since(start)

	rep := summarize(o, &c, elapsed, slowCutoffs.Load())
	rep.Windows = win.stats()
	if win != nil {
		rep.WindowSize = o.window
	}
	if sink != nil {
		rep.Traces = sink.fetched.Load()
		rep.TraceMisses = sink.missed.Load()
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	printReport(rep)
	if o.campaign {
		benchLines(os.Stdout, o, rep)
	}

	if rep.OK == 0 {
		return fmt.Errorf("no request succeeded (%d issued, %d shed, %d 5xx, %d transport errors)",
			rep.Requests, rep.Shed, rep.Errors5xx, rep.Transport)
	}
	if o.requireShed && rep.Shed == 0 {
		return fmt.Errorf("-require-shed: the server never shed; overload was not reached")
	}
	if rep.Errors5xx > o.max5xx {
		return fmt.Errorf("-max-5xx: %d server errors exceed the budget of %d", rep.Errors5xx, o.max5xx)
	}
	return nil
}

func opPath(op string) (string, error) {
	switch op {
	case "solve", "simulate", "execute":
		return "/v1/" + op, nil
	default:
		return "", fmt.Errorf("unknown -op %q (want solve, simulate or execute)", op)
	}
}

// hotBodies pre-marshals the hot task-set pool. Hot requests replay
// these bodies byte-for-byte, which is exactly what the server's
// schedule cache coalesces on.
func hotBodies(o options) ([][]byte, error) {
	bodies := make([][]byte, o.hotSets)
	for i := range bodies {
		b, err := body(o, stats.DeriveSeed(o.seed, 0x407, uint64(i)))
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// body marshals one request envelope around a synthetic task set drawn
// from the given seed.
func body(o options, seed int64) ([]byte, error) {
	tasks, err := workload.Synthetic(workload.SyntheticConfig{N: o.tasks}, seed)
	if err != nil {
		return nil, err
	}
	req := struct {
		Tasks     task.Set `json:"tasks"`
		Scheduler string   `json:"scheduler,omitempty"`
	}{Tasks: tasks, Scheduler: o.scheduler}
	return json.Marshal(req)
}

// issue runs one logical request: pick hot or cold body by the seeded
// mix, send, and retry 429s with backoff until the budget of attempts
// is spent. Counts go to c; only 2xx attempt latencies enter the
// quantile set.
func issue(ctx context.Context, client *http.Client, url string, hot [][]byte, o options, n int64, c *counters, sink *traceSink, win *loadWindows) {
	c.requests.Add(1)
	// Every return path is a terminal outcome for logical request n; the
	// deferred record keeps the window's request count in lockstep with
	// the run-level Requests counter.
	okDone, okMs := false, 0.0
	defer func() { win.done(n, okDone, okMs) }()
	var payload []byte
	if unit(o.seed, 0x1a1d, uint64(n)) < o.hot {
		payload = hot[int(unit(o.seed, 0x5e7, uint64(n))*float64(len(hot)))%len(hot)]
	} else {
		b, err := body(o, stats.DeriveSeed(o.seed, 0xc01d, uint64(n)))
		if err != nil {
			c.transport.Add(1)
			return
		}
		payload = b
	}

	for attempt := 0; ; attempt++ {
		// One trace per attempt: a retried request must not reuse the shed
		// attempt's trace ID, or the ring would alias two span trees.
		var tp *wspan.Trace
		if sink != nil {
			tp = wspan.New("sdemload")
		}
		code, retryAfter, ms, err := attemptOnce(ctx, client, url, payload, o.budgetMs, tp.Traceparent())
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return // the run ended mid-request; not the server's fault
			}
			c.transport.Add(1)
			return
		case code >= 200 && code < 300:
			c.ok.Add(1)
			c.observe(ms)
			okDone, okMs = true, ms
			sink.collect(ctx, client, tp.TraceID())
			return
		case code == http.StatusTooManyRequests:
			c.shed.Add(1)
			win.shed(n)
			if attempt >= o.retries {
				return
			}
			c.retries.Add(1)
			if !sleepCtx(ctx, backoffDelay(o, n, attempt, retryAfter)) {
				return
			}
		case code >= 500:
			c.err5xx.Add(1)
			return
		default:
			c.err4xx.Add(1)
			return
		}
	}
}

// attemptOnce sends one HTTP attempt and returns its status code, the
// parsed Retry-After hint (seconds, 0 if absent) and the wall latency
// in milliseconds.
func attemptOnce(ctx context.Context, client *http.Client, url string, payload []byte, budgetMs int64, traceparent string) (code, retryAfter int, ms float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return 0, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if budgetMs > 0 {
		req.Header.Set("X-Budget-Ms", strconv.FormatInt(budgetMs, 10))
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	//lint:allow telemetrycheck: client-observed request latency is the quantity under measurement
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	//lint:allow telemetrycheck: closes the per-attempt latency measurement
	ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	if v := resp.Header.Get("Retry-After"); v != "" {
		if s, perr := strconv.Atoi(v); perr == nil && s > 0 {
			retryAfter = s
		}
	}
	return resp.StatusCode, retryAfter, ms, nil
}

// backoffDelay picks the wait before retry `attempt` of request n:
// exponential from the base with deterministic jitter in [0.5, 1.5),
// but the server's Retry-After hint wins when it is longer, capped at
// 2s so a pessimistic hint cannot stall the whole run.
func backoffDelay(o options, n int64, attempt, retryAfter int) time.Duration {
	d := o.backoff << uint(attempt)
	jitter := 0.5 + unit(o.seed, 0xbac0ff, uint64(n), uint64(attempt))
	d = time.Duration(float64(d) * jitter)
	if ra := time.Duration(retryAfter) * time.Second; ra > d {
		d = ra
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// slowReader is the pathological client: it opens a connection,
// announces a large body, then dribbles one byte per 50 ms. A healthy
// server cuts it off via read timeouts; every cutoff increments drops.
func slowReader(ctx context.Context, addr, path string, drops *atomic.Int64) {
	for ctx.Err() == nil {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			if !sleepCtx(ctx, 200*time.Millisecond) {
				return
			}
			continue
		}
		header := "POST " + path + " HTTP/1.1\r\nHost: " + addr +
			"\r\nContent-Type: application/json\r\nContent-Length: 1000000\r\n\r\n"
		if _, err := conn.Write([]byte(header)); err != nil {
			conn.Close()
			continue
		}
		for ctx.Err() == nil {
			if _, err := conn.Write([]byte("{")); err != nil {
				drops.Add(1) // the server hung up on us — timeouts work
				break
			}
			if !sleepCtx(ctx, 50*time.Millisecond) {
				break
			}
		}
		conn.Close()
	}
}

func summarize(o options, c *counters, elapsed time.Duration, slowCutoffs int64) report {
	c.mu.Lock()
	lat := append([]float64(nil), c.latencies...)
	c.mu.Unlock()
	sort.Float64s(lat)
	mode, conc, rate := "closed", o.concurrency, 0.0
	if o.rate > 0 {
		mode, conc, rate = "open", 0, o.rate
	}
	requests := c.requests.Load()
	shed := c.shed.Load()
	rep := report{
		Op:          o.op,
		Mode:        mode,
		Concurrency: conc,
		RatePerSec:  rate,
		DurationS:   elapsed.Seconds(),
		Requests:    requests,
		OK:          c.ok.Load(),
		Shed:        shed,
		Retries:     c.retries.Load(),
		Errors4xx:   c.err4xx.Load(),
		Errors5xx:   c.err5xx.Load(),
		Transport:   c.transport.Load(),
		LatencyP50:  stats.Quantile(lat, 0.50),
		LatencyP90:  stats.Quantile(lat, 0.90),
		LatencyP99:  stats.Quantile(lat, 0.99),
		SlowClients: o.slow,
		SlowCutoffs: slowCutoffs,
	}
	if len(lat) > 0 {
		rep.LatencyMax = lat[len(lat)-1]
	}
	if requests > 0 {
		rep.ShedRate = float64(shed) / float64(requests)
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.OK) / elapsed.Seconds()
	}
	return rep
}

func printReport(r report) {
	fmt.Printf("sdemload %s (%s): %d requests in %.1fs — %d ok (%.1f req/s), %d shed (%.1f%%), %d retries, %d 4xx, %d 5xx, %d transport\n",
		r.Op, r.Mode, r.Requests, r.DurationS, r.OK, r.Throughput, r.Shed, 100*r.ShedRate,
		r.Retries, r.Errors4xx, r.Errors5xx, r.Transport)
	fmt.Printf("latency ms of admitted requests: p50=%.1f p90=%.1f p99=%.1f max=%.1f\n",
		r.LatencyP50, r.LatencyP90, r.LatencyP99, r.LatencyMax)
	if r.SlowClients > 0 {
		fmt.Printf("slow readers: %d clients, %d server cutoffs\n", r.SlowClients, r.SlowCutoffs)
	}
	if r.Traces > 0 || r.TraceMisses > 0 {
		fmt.Printf("traces: %d span trees fetched, %d misses\n", r.Traces, r.TraceMisses)
	}
	if len(r.Windows) > 0 {
		worstP99, worstShed := 0.0, 0.0
		for _, w := range r.Windows {
			worstP99 = math.Max(worstP99, w.LatencyP99)
			worstShed = math.Max(worstShed, w.ShedRate)
		}
		fmt.Printf("windows: %d of %d requests each — worst p99=%.1fms, worst shed=%.1f%% (full table in -out)\n",
			len(r.Windows), r.WindowSize, worstP99, 100*worstShed)
	}
}

// benchLines prints the campaign summary as a `go test -bench` result
// line so cmd/benchreport can parse the run and merge it into a BENCH
// baseline with -merge. Iterations and ns/op are per admitted request
// over the whole closed loop; the shed rate and quantiles ride along as
// custom units.
func benchLines(w io.Writer, o options, r report) {
	name := "BenchmarkLoadCampaign" + strings.ToUpper(o.op[:1]) + o.op[1:]
	nsPerOp := 0.0
	if r.OK > 0 {
		nsPerOp = r.DurationS * 1e9 / float64(r.OK)
	}
	fmt.Fprintf(w, "%s %d %.0f ns/op %.1f rps %.3f p50-ms %.3f p99-ms %.6f shed-rate\n",
		name, r.OK, nsPerOp, r.Throughput, r.LatencyP50, r.LatencyP99, r.ShedRate)
}

// unit maps (seed, dims...) onto [0, 1) deterministically — the same
// SplitMix64 derivation the fault planner uses, so the request mix and
// the retry jitter replay exactly under a fixed -seed.
func unit(seed int64, dims ...uint64) float64 {
	return float64(uint64(stats.DeriveSeed(seed, dims...))>>11) / (1 << 53)
}
