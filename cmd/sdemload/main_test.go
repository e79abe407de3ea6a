package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sdem/internal/serve"
)

// TestLoadWindowsOrdinalMembership pins the window-clock rule: request
// ordinals alone decide window membership, so the same outcomes replayed
// in any order produce the same per-window counts.
func TestLoadWindowsOrdinalMembership(t *testing.T) {
	record := func(order []int64) []windowStat {
		w := newLoadWindows(4, time.Now())
		for _, n := range order {
			if n%5 == 0 {
				w.shed(n)
				w.done(n, false, 0)
				continue
			}
			w.done(n, true, float64(n))
		}
		return w.stats()
	}
	fwd := record([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	rev := record([]int64{12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if len(fwd) != 3 || len(rev) != 3 {
		t.Fatalf("windows: fwd=%d rev=%d, want 3", len(fwd), len(rev))
	}
	for i := range fwd {
		a, b := fwd[i], rev[i]
		if a.Window != b.Window || a.Requests != b.Requests || a.OK != b.OK || a.Shed != b.Shed {
			t.Fatalf("window %d differs across orders:\nfwd: %+v\nrev: %+v", i, a, b)
		}
	}
	// Requests 1-4 hold one shed (n=5 is window 1); window 1 holds n=5..8
	// with one shed and three OKs; quantiles come from the OK latencies.
	if fwd[0].Requests != 4 || fwd[0].OK != 4 || fwd[0].Shed != 0 {
		t.Fatalf("window 0: %+v", fwd[0])
	}
	if fwd[1].Requests != 4 || fwd[1].OK != 3 || fwd[1].Shed != 1 {
		t.Fatalf("window 1: %+v", fwd[1])
	}
	if fwd[1].ShedRate != 0.25 {
		t.Fatalf("window 1 shed rate = %g, want 0.25", fwd[1].ShedRate)
	}
	if fwd[1].LatencyP99 != 8 {
		t.Fatalf("window 1 p99 = %g, want the max OK latency 8", fwd[1].LatencyP99)
	}
}

// TestLoadWindowsNilSafe covers the -window 0 path: a nil collector
// absorbs every call and reports nothing.
func TestLoadWindowsNilSafe(t *testing.T) {
	var w *loadWindows
	w.done(1, true, 1)
	w.shed(1)
	if got := w.stats(); got != nil {
		t.Fatalf("nil windows produced stats: %+v", got)
	}
	if newLoadWindows(0, time.Now()) != nil {
		t.Fatal("size 0 must disable windowing")
	}
}

// TestApplyCampaign checks the preset fills only the flags the user left
// at their defaults.
func TestApplyCampaign(t *testing.T) {
	o := options{op: "solve", duration: 10 * time.Second, concurrency: 8, hot: 0.5, hotSets: 4}
	applyCampaign(&o, map[string]bool{})
	if o.requests != 1_000_000 || o.concurrency != 32 || o.hot != 0.7 || o.hotSets != 8 {
		t.Fatalf("preset not applied: %+v", o)
	}
	if o.op != "simulate" {
		t.Fatalf("op = %q, want the simulate default (synthetic sets are general)", o.op)
	}
	if o.window != 100_000 {
		t.Fatalf("window = %d, want a tenth of the run", o.window)
	}
	if o.duration != time.Hour {
		t.Fatalf("duration = %v, want the 1h ceiling", o.duration)
	}

	// Explicit flags win over the preset.
	o = options{op: "solve", requests: 5000, concurrency: 4, hot: 0.5, hotSets: 4}
	applyCampaign(&o, map[string]bool{"requests": true, "concurrency": true})
	if o.requests != 5000 || o.concurrency != 4 {
		t.Fatalf("explicit flags overridden: %+v", o)
	}
	if o.window != 500 {
		t.Fatalf("window = %d, want a tenth of the explicit request count", o.window)
	}
}

// TestBenchLinesParseable pins the benchreport contract: the campaign
// line is a `go test -bench` result — name, iterations, then
// (value, unit) pairs, every value a float.
func TestBenchLinesParseable(t *testing.T) {
	var sb strings.Builder
	benchLines(&sb, options{op: "solve"}, report{
		OK: 1_000_000, DurationS: 120, Throughput: 8333.3,
		LatencyP50: 1.2, LatencyP99: 9.5, ShedRate: 0.0125,
	})
	fields := strings.Fields(sb.String())
	if fields[0] != "BenchmarkLoadCampaignSolve" {
		t.Fatalf("name = %q", fields[0])
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		t.Fatalf("iterations %q: %v", fields[1], err)
	}
	if len(fields)%2 != 0 {
		t.Fatalf("fields after the name must form (value, unit) pairs: %q", sb.String())
	}
	units := map[string]bool{}
	for i := 2; i+1 < len(fields); i += 2 {
		if _, err := strconv.ParseFloat(fields[i], 64); err != nil {
			t.Fatalf("value %q: %v", fields[i], err)
		}
		units[fields[i+1]] = true
	}
	for _, u := range []string{"ns/op", "rps", "p99-ms", "shed-rate"} {
		if !units[u] {
			t.Fatalf("missing unit %q in %q", u, sb.String())
		}
	}
}

// startServer runs an in-process sdemd and returns its host:port.
func startServer(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(serve.New(serve.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}).Handler())
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// loadOptions is a small closed-loop run against addr that writes its
// JSON report to out.
func loadOptions(addr, op, out string, requests, seed int64) options {
	return options{
		addr: addr, op: op, duration: 30 * time.Second, requests: requests,
		concurrency: 2, tasks: 6, seed: seed, hot: 0.5, hotSets: 2,
		retries: 3, backoff: time.Millisecond, out: out,
	}
}

// readReport decodes the JSON report a run wrote.
func readReport(t *testing.T, path string) report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestExecuteSendsFaultsSpec checks that -op execute requests carry the
// faults spec /v1/execute requires: every request succeeds.
func TestExecuteSendsFaultsSpec(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	if err := run(loadOptions(startServer(t), "execute", out, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if rep := readReport(t, out); rep.OK != 4 || rep.Errors4xx != 0 {
		t.Fatalf("execute run: ok %d, errors_4xx %d; want 4 and 0", rep.OK, rep.Errors4xx)
	}
}

// TestTraceOutAppends checks that -trace-out appends: two runs into one
// file leave both runs' span trees.
func TestTraceOutAppends(t *testing.T) {
	addr, dir := startServer(t), t.TempDir()
	traces := filepath.Join(dir, "traces.jsonl")
	var fetched int64
	for seed := int64(1); seed <= 2; seed++ {
		o := loadOptions(addr, "simulate", filepath.Join(dir, "report.json"), 3, seed)
		o.traceOut = traces
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		rep := readReport(t, o.out)
		if rep.Traces == 0 {
			t.Fatalf("run %d fetched no traces", seed)
		}
		fetched += rep.Traces
	}
	data, err := os.ReadFile(traces)
	if err != nil {
		t.Fatal(err)
	}
	if lines := int64(strings.Count(string(data), "\n")); lines != fetched {
		t.Fatalf("%s holds %d traces, want both runs' %d", traces, lines, fetched)
	}
}
