package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sdem/internal/power"
	"sdem/internal/serve"
	"sdem/internal/stats"
	"sdem/internal/workload"
)

// shortRun is a timed phase well under 1% of a 20 s run.
const shortRun = 150 * time.Millisecond

var serveSpecs = map[string]serveSpec{
	"hot-simulate":  hotSimulate,
	"cold-simulate": coldSimulate,
	"offline-solve": offlineSolve,
}

// TestServeWorkloads runs every serve workload briefly, untraced and
// traced, with all output checks on.
func TestServeWorkloads(t *testing.T) {
	for name, sp := range serveSpecs {
		sp.round, sp.warm = 512, 32
		for _, trace := range []bool{false, true} {
			attempted, failed, v, err := runServe(sp, options{workload: name, seed: 7, seconds: shortRun, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if attempted == 0 || failed != 0 {
				t.Fatalf("%s trace=%v: %d attempted, %d failed", name, trace, attempted, failed)
			}
			for _, m := range []string{"setup_s", "ops_per_s", "p50_ms", "p99_ms", "energy_per_task_j"} {
				if !(v[m] > 0) {
					t.Errorf("%s trace=%v: %s = %v, want > 0", name, trace, m, v[m])
				}
			}
			if !trace {
				continue
			}
			// The stage shares and the untracked rest partition the
			// client's mean latency.
			sum := v["serve.untracked_share"]
			for _, m := range stageNames {
				sum += v[m]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: stage shares sum to %v, want 1", name, sum)
			}
			for _, m := range []string{"bench.op_mean_ms", "serve.solve_share", "serve.decode_share", "encode.canonical_key_share", "schedule.audit_share", "sim.segments_per_task", "runtime.cpu_ms_per_op"} {
				if !(v[m] > 0) {
					t.Errorf("%s: %s = %v, want > 0", name, m, v[m])
				}
			}
		}
	}
}

// TestOfflineLedgerFindsTheDP checks the traced ledger attributes the
// offline-solve time to the agreeable DP, which runs on 1 request in 16.
func TestOfflineLedgerFindsTheDP(t *testing.T) {
	sp := offlineSolve
	sp.round, sp.warm = 512, 32
	_, _, v, err := runServe(sp, options{workload: "offline-solve", seed: 3, seconds: 300 * time.Millisecond, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	// About 9× on an optimized build, 5× under the race detector.
	if ag, cr := v["agreeable.solve_share"], v["commonrelease.solve_share"]; ag < 3*cr {
		t.Errorf("agreeable share %v, common-release share %v: the DP should dominate", ag, cr)
	}
}

// TestStreamSoak runs the stream briefly, untraced and traced.
func TestStreamSoak(t *testing.T) {
	sp := streamSpec{warm: 2000}
	for _, trace := range []bool{false, true} {
		attempted, failed, v, err := runStream(sp, options{workload: "stream-soak", seed: 7, seconds: shortRun, trace: trace})
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		if attempted == 0 || failed != 0 {
			t.Fatalf("trace=%v: %d attempted, %d failed", trace, attempted, failed)
		}
		for _, m := range []string{"setup_s", "ops_per_s", "p50_ms", "p99_ms", "energy_per_task_j"} {
			if !(v[m] > 0) {
				t.Errorf("trace=%v: %s = %v, want > 0", trace, m, v[m])
			}
		}
		if trace && !(v["online.engine_share"] > 0 && v["sim.max_active"] > 0) {
			t.Errorf("engine share %v, max active %v, want > 0", v["online.engine_share"], v["sim.max_active"])
		}
	}
}

// TestSameSeedSameInputs checks that a seed fixes the request bodies and
// the stream, and that another seed changes them, while
// energy_per_task_j, taken over the set-up corpus, is one exact number
// whatever the seed.
func TestSameSeedSameInputs(t *testing.T) {
	sys := power.DefaultSystem()
	for name, sp := range serveSpecs {
		sp.round, sp.warm = 256, 16
		round := func(seed int64) []request {
			hot, err := hotRequests(sp, seed, sys)
			if err != nil {
				t.Fatal(err)
			}
			reqs, err := genRound(sp, seed, 1, hot, sys)
			if err != nil {
				t.Fatal(err)
			}
			return reqs
		}
		a, b, c := round(7), round(7), round(8)
		if bodyHash(a) != bodyHash(b) {
			t.Errorf("%s: seed 7 gave two different rounds", name)
		}
		if bodyHash(a) == bodyHash(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same round", name)
		}
		energy := func(seed int64) float64 {
			_, _, v, err := runServe(sp, options{workload: name, seed: seed, seconds: 20 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			return v["energy_per_task_j"]
		}
		if e7, e8 := energy(7), energy(8); e7 != e8 {
			t.Errorf("%s: energy per task %v on seed 7, %v on seed 8", name, e7, e8)
		}
	}

	arrivals := func(seed int64) string {
		src, err := streamSource(stats.DeriveSeed(seed, tagStream), 1000)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(workload.Collect(src, 1000))
	}
	if a, b, c := arrivals(7), arrivals(7), arrivals(8); a != b || a == c {
		t.Errorf("stream: seed 7 twice gave equal arrivals: %v, seeds 7 and 8 did: %v (want true, false)", a == b, a == c)
	}
	energy := func(seed int64) float64 {
		_, _, v, err := runStream(streamSpec{warm: 2000}, options{workload: "stream-soak", seed: seed, seconds: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return v["energy_per_task_j"]
	}
	if e7, e8 := energy(7), energy(8); e7 != e8 {
		t.Errorf("stream: energy per task %v on seed 7, %v on seed 8", e7, e8)
	}
}

// TestStallsMoveTheP99 checks that intermittent stalls still show after
// scaling to reference speed: a handler that stalls one request in 50 by
// 10 ms moves p99_ms up several times and ops_per_s down.
func TestStallsMoveTheP99(t *testing.T) {
	sys := power.DefaultSystem()
	hot, err := hotRequests(hotSimulate, 5, sys)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := genRound(hotSimulate, 5, 1, hot, sys)
	if err != nil {
		t.Fatal(err)
	}
	reqs = reqs[:2048]
	const stall = 10 * time.Millisecond
	measure := func(every int64) summary {
		h := serve.New(serverConfig(false)).Handler()
		if every > 0 {
			var n atomic.Int64
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if n.Add(1)%every == 0 {
					time.Sleep(stall)
				}
				inner.ServeHTTP(w, r)
			})
		}
		host := newHostMeter(time.Now())
		out := make([]outcome, len(reqs))
		n, span, _ := newLoop(h, hotSimulate.route, host.epoch, host, false).run(reqs, out, time.Hour)
		ops := make([]opSample, n)
		for i, oc := range out[:n] {
			ops[i] = oc.op
		}
		return summarize(ops, []opSample{span}, 1, host.profile())
	}
	clean, stalled := measure(0), measure(50)
	if !(stalled.p99 > 3*clean.p99) {
		t.Errorf("p99 %.3f ms without stalls, %.3f ms with one %v stall in 50 requests: the stalls did not show", clean.p99, stalled.p99, stall)
	}
	if !(stalled.opsPerS < 0.9*clean.opsPerS) {
		t.Errorf("%.0f requests/s without stalls, %.0f with them: the stalls did not show", clean.opsPerS, stalled.opsPerS)
	}
}

// TestSlowdownScaling checks the scaling to reference speed on a made-up
// host: at reference speed for 200 ms, then twice as slow.
func TestSlowdownScaling(t *testing.T) {
	h := newHostMeter(time.Now())
	h.samples = []opSample{
		{start: 10 * time.Millisecond, dur: refNominal},
		{start: 20 * time.Millisecond, dur: refNominal},
		{start: 250 * time.Millisecond, dur: 2 * refNominal},
	}
	f := h.profile()
	want := slowdown{1, 1, 2} // the empty middle segment takes the one before
	if len(f) != len(want) {
		t.Fatalf("slowdown %v, want %v", f, want)
	}
	for k := range want {
		if math.Abs(f[k]/want[k]-1) > 2*sketchAlpha {
			t.Fatalf("slowdown %v, want %v", f, want)
		}
	}
	// 100 ms at full speed, 100 ms at half speed: 150 ms at reference speed.
	if got := f.scaled(opSample{start: 100 * time.Millisecond, dur: 200 * time.Millisecond}); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("scaled span %v s, want 0.15", got)
	}
	ops := []opSample{
		{start: 50 * time.Millisecond, dur: time.Millisecond},
		{start: 260 * time.Millisecond, dur: 2 * time.Millisecond},
	}
	sum := summarize(ops, []opSample{{start: 100 * time.Millisecond, dur: 200 * time.Millisecond}}, 1, f)
	if math.Abs(sum.p99-1) > 0.002 || math.Abs(sum.opsPerS-2/0.15) > 1e-9 {
		t.Errorf("p99 %v ms, %v ops/s; want 1 ms (both ops at reference speed), %v ops/s", sum.p99, sum.opsPerS, 2/0.15)
	}
}

// bodyHash fingerprints the bodies of a round (FNV-1a over the bytes).
func bodyHash(reqs []request) uint64 {
	h := fnv.New64a()
	for _, r := range reqs {
		h.Write(r.body)
	}
	return h.Sum64()
}

// TestCheckRejectsWrongAnswers feeds the checks answers that break each
// rule.
func TestCheckRejectsWrongAnswers(t *testing.T) {
	sys := power.DefaultSystem()
	ts, err := synthetic(10)(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRequest(ts, true, -1, sys)
	if err != nil {
		t.Fatal(err)
	}
	l := newLoop(serve.New(serverConfig(false)).Handler(), "/v1/simulate", time.Now(), nil, false)
	good := l.do(r.body, 0)
	if _, err := checkResponse(r, good.body, sys); err != nil {
		t.Fatalf("a correct answer failed its checks: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(good.body, &m); err != nil {
		t.Fatal(err)
	}
	edit := func(f func(map[string]any)) []byte {
		c := map[string]any{}
		for k, v := range m {
			c[k] = v
		}
		f(c)
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bad := map[string][]byte{
		"unparsable":  []byte("{"),
		"wrong n":     edit(func(c map[string]any) { c["n"] = 9 }),
		"below bound": edit(func(c map[string]any) { c["energy_j"] = r.lb / 2 }),
		"off audit":   edit(func(c map[string]any) { c["energy_j"] = c["energy_j"].(float64) * 1.001 }),
		"no schedule": edit(func(c map[string]any) { delete(c, "schedule") }),
	}
	for what, body := range bad {
		if _, err := checkResponse(r, body, sys); err == nil {
			t.Errorf("%s: the checks passed", what)
		}
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the metrics
// a run prints in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, sdembench prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], sdembench prints %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, sdembench has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to sdembench", w.Name)
		}
	}
}

// TestRunMainRejectsBadFlags checks usage errors exit nonzero without a
// result line.
func TestRunMainRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "hot-simulate", "-seconds", "0"},
		{"-workload", "hot-simulate", "-trace", "2"},
		{"-bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := runMain(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestCompare checks the verdicts of `sdembench compare`.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := `{"end_to_end":[{"name":"p50_ms","better":"lower","bound":0.1},{"name":"ops_per_s","better":"higher","bound":0.1}]}`
	write := func(name string, p50, ops []float64, failed int64) string {
		var b strings.Builder
		for i := range p50 {
			line, err := json.Marshal(record{Workload: "w", Seed: int64(i), Result: result{Correct: true, Attempted: 1000, Failed: failed, Metrics: map[string]metric{
				"p50_ms": {Value: p50[i], Unit: "ms"}, "ops_per_s": {Value: ops[i], Unit: "1/s"},
			}}})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	a := write("a", []float64{1, 1.01, 0.99, 1, 1}, []float64{100, 101, 99, 100, 100}, 0)
	same := write("same", []float64{1.02, 1.01, 0.99, 1, 1.03}, []float64{99, 101, 100, 98, 100}, 0)
	slower := write("slower", []float64{1.3, 1.31, 1.29, 1.3, 1.3}, []float64{70, 71, 69, 70, 70}, 0)
	noisy := write("noisy", []float64{0.5, 1, 2, 0.7, 1.5}, []float64{100, 101, 99, 100, 100}, 0)
	failing := write("failing", []float64{1, 1.01, 0.99, 1, 1}, []float64{100, 101, 99, 100, 100}, 1)

	for _, c := range []struct {
		b    string
		code int
		want []string
	}{
		{same, 0, []string{"within bound"}},
		{slower, 1, []string{"outside bound"}},
		{noisy, 0, []string{"unresolved", "within bound"}},
		{failing, 1, []string{"(5/5000)", "outside bound"}},
	} {
		var out, errOut bytes.Buffer
		code := compareMain(specPath, []string{a, c.b}, &out, &errOut)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", filepath.Base(c.b), code, c.code, out.String(), errOut.String())
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: no %q verdict in\n%s", filepath.Base(c.b), w, out.String())
			}
		}
	}
}
