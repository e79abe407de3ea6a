package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdem/internal/telemetry/series"
	"sdem/internal/telemetry/slo"
)

// testSeries builds a small deterministic series with a breach in the
// middle windows.
func testSeries() *series.Series {
	mk := func(idx int64, misses int64, p99scale float64) series.Window {
		sk := series.NewSketch(series.DefaultAlpha)
		for i := 1; i <= 100; i++ {
			sk.Observe(p99scale * float64(i) / 100)
		}
		return series.Window{
			Index: idx,
			Counters: map[string]int64{
				"sdem.sim.completions{sched=sdem-on}": 100,
				"sdem.sim.misses{sched=sdem-on}":      misses,
			},
			Floats:   map[string]float64{"sdem.sim.metered_j{sched=sdem-on}": 250},
			Sketches: map[string]*series.Sketch{"sdem.stream.response_s": sk},
		}
	}
	var ws []series.Window
	for i := int64(0); i < 8; i++ {
		m := int64(0)
		if i >= 3 && i <= 5 {
			m = 40
		}
		ws = append(ws, mk(i, m, 0.1))
	}
	return &series.Series{Clock: series.ClockVirtual, Interval: 60, Alpha: series.DefaultAlpha, Windows: ws}
}

func TestRenderDeterministicAndComplete(t *testing.T) {
	ser := testSeries()
	verdict, err := slo.Evaluate(ser, slo.SoakSpecs(0.1, 1, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := render(&a, ser, verdict); err != nil {
		t.Fatal(err)
	}
	if err := render(&b, ser, verdict); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("render is not deterministic")
	}
	out := a.String()
	for _, want := range []string{
		"clock=virtual_s interval=60",
		"sdem.sim.completions", // totals row (bare name: labels merged)
		"sdem.stream.response_s",
		"per-window",
		"slo verdict: FAIL",
		"FAIL  miss-rate",
		// Window 3 does not burn: its 6-window trailing aggregate is
		// exactly at, not above, the 0.1 bound. The sustained run is 4-5.
		"breach miss-rate: windows [4-5]",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// 800 completions total across 8 windows.
	if !strings.Contains(out, "800") {
		t.Fatalf("report missing the completions total:\n%s", out)
	}
}

func TestRunOnDumpExitCodes(t *testing.T) {
	dir := t.TempDir()
	dump := filepath.Join(dir, "dump.jsonl")
	f, err := os.Create(dump)
	if err != nil {
		t.Fatal(err)
	}
	if err := testSeries().WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Tight miss-rate SLO: breach, exit 3, verdict written.
	vout := filepath.Join(dir, "verdict.json")
	var buf bytes.Buffer
	code, err := run(&buf, options{seriesPath: dump, profile: "soak",
		maxMissRate: 0.1, maxP99: 1, maxDrift: 0.5, verdictOut: vout})
	if code != exitBreach || err == nil || !strings.Contains(err.Error(), "SLO breach") {
		t.Fatalf("breach run: code=%d err=%v", code, err)
	}
	vb, err := os.ReadFile(vout)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(vb, []byte(`"pass": false`)) {
		t.Fatalf("verdict file must record the failure: %s", vb)
	}

	// Loose SLO: pass, exit 0.
	buf.Reset()
	code, err = run(&buf, options{seriesPath: dump, profile: "soak",
		maxMissRate: 0.9, maxP99: 1, maxDrift: 0.5})
	if code != 0 || err != nil {
		t.Fatalf("passing run: code=%d err=%v", code, err)
	}

	// No profile: report only, no verdict section.
	buf.Reset()
	code, err = run(&buf, options{seriesPath: dump})
	if code != 0 || err != nil {
		t.Fatalf("report-only run: code=%d err=%v", code, err)
	}
	if strings.Contains(buf.String(), "slo verdict") {
		t.Fatal("report-only run must not print a verdict")
	}

	// Coalesce halves the window count.
	buf.Reset()
	if code, err = run(&buf, options{seriesPath: dump, coalesce: 2}); code != 0 || err != nil {
		t.Fatalf("coalesced run: code=%d err=%v", code, err)
	}
	if !strings.Contains(buf.String(), "windows=4") {
		t.Fatalf("coalesce 2 over 8 windows must report 4:\n%s", buf.String())
	}

	// Two sources configured is an operational error, not a breach.
	if code, _ = run(&buf, options{seriesPath: dump, url: "http://x"}); code != 1 {
		t.Fatalf("conflicting sources must exit 1, got %d", code)
	}
}

func TestRunFetchesDumpOverHTTP(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if err := testSeries().WriteJSONL(w); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()
	var buf bytes.Buffer
	code, err := run(&buf, options{url: srv.URL})
	if code != 0 || err != nil {
		t.Fatalf("url run: code=%d err=%v", code, err)
	}
	if !strings.Contains(buf.String(), "windows=8") {
		t.Fatalf("fetched report wrong:\n%s", buf.String())
	}
}
