package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sdem/internal/faults"
	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/telemetry"
	"sdem/internal/telemetry/export"
	"sdem/internal/telemetry/series"
	"sdem/internal/telemetry/slo"
	"sdem/internal/workload"
)

// faultedSoak prepares a soak of virtual seconds of the default arrival
// source under fault intensity 0.6, feeding a recorder and a
// virtual-clock collector of the given window. The collector stays
// open after stream returns, as a live soak's listen handler sees it.
func faultedSoak(t *testing.T, virtual, window float64) (tel *telemetry.Recorder, col *series.Collector, stream func() error) {
	t.Helper()
	src, err := workload.SporadicStream(workload.SyntheticConfig{MaxInterArrival: 0.08}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tel = telemetry.New()
	col, err = series.NewCollector(tel, series.ClockVirtual, window)
	if err != nil {
		t.Fatal(err)
	}
	sys := power.DefaultSystem()
	sys.Cores = 8
	opts := online.StreamOptions{
		Cores:      8,
		MaxVirtual: virtual,
		Telemetry:  tel,
		Series:     col,
		Faults:     faults.NewStreamer(faults.Config{Intensity: 0.6}, 1),
	}
	return tel, col, func() error {
		_, err := online.ScheduleStream(src, sys, opts)
		return err
	}
}

func getBody(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// TestListenSeries checks -listen's /debug/series: the sealed windows
// of the soak's own collector as JSONL, and a 404 without -window.
func TestListenSeries(t *testing.T) {
	tel, col, stream := faultedSoak(t, 120, 30)
	h := listenHandler(tel, col)
	// Read while the soak runs, as sdemwatch -url does: every dump of a
	// collector still sealing windows must parse.
	done := make(chan error, 1)
	go func() { done <- stream() }()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		if _, err := series.ReadJSONL(getBody(t, h, "/debug/series").Body); err != nil {
			t.Fatalf("dump during the soak: %v", err)
		}
	}

	w := getBody(t, h, "/debug/series")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/series: %d\n%s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	got, err := series.ReadJSONL(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := col.Snapshot()
	if len(want.Windows) < 3 {
		t.Fatalf("soak sealed %d windows, want at least 3", len(want.Windows))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/debug/series reads back as\n%+v\nwant the collector's snapshot\n%+v", got, want)
	}

	if w := getBody(t, listenHandler(tel, nil), "/debug/series"); w.Code != http.StatusNotFound {
		t.Fatalf("/debug/series without a collector: %d, want 404", w.Code)
	}
}

// TestListenMetricsUnchanged pins /metrics: the recorder's OpenMetrics
// rendering, byte for byte, whether or not a collector is attached.
func TestListenMetricsUnchanged(t *testing.T) {
	tel, col, stream := faultedSoak(t, 60, 30)
	if err := stream(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := export.WriteOpenMetrics(&want, tel.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*series.Collector{col, nil} {
		w := getBody(t, listenHandler(tel, c), "/metrics")
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
			t.Fatalf("/metrics (collector %v): %d, body differs from the exposition:\n%s", c != nil, w.Code, w.Body.String())
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/openmetrics-text; version=1.0.0; charset=utf-8" {
			t.Fatalf("content type %q", ct)
		}
	}
}

// TestSoakProfileMatchesProducerKeys pins the built-in soak profile to
// the keys the streaming engine records: on the series of a soak run
// with make watch-smoke's flags, every objective of slo.SoakSpecs must
// find eligible windows. An objective whose keys match nothing judges
// zero windows and passes silently.
func TestSoakProfileMatchesProducerKeys(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "soak.jsonl")
	if err := run(options{
		virtual: 600, cores: 8, seed: 1, arrival: 80 * time.Millisecond,
		intensity: 0.6, faultSeed: 1, quiet: true,
		window: 60, seriesOut: dump, sloMissRate: 0.05, sloP99: 2, sloDrift: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(dump)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ser, err := series.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	v, err := slo.Evaluate(ser, slo.SoakSpecs(0.05, 2, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Results) != 4 {
		t.Fatalf("soak profile judged %d objectives, want 4", len(v.Results))
	}
	for _, r := range v.Results {
		if r.Windows == 0 {
			t.Errorf("objective %s judged no window of %d: its keys match nothing the soak records", r.Name, len(ser.Windows))
		}
	}
}
