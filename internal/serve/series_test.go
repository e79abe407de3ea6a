package serve

import (
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"sdem/internal/telemetry/series"
	"sdem/internal/telemetry/slo"
)

// TestDebugSeriesWindows drives enough requests to seal ordinal windows
// and checks the /debug/series dump: window layout keyed on the request
// ordinal, per-window request counters, and the latency sketch.
func TestDebugSeriesWindows(t *testing.T) {
	s := New(Config{
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		SeriesWindow: 4,
	})
	for i := 0; i < 9; i++ {
		if w := post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()}); w.Code != http.StatusOK {
			t.Fatalf("solve %d: %d\n%s", i, w.Code, w.Body.String())
		}
	}
	w := get(t, s, "/debug/series")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/series: %d\n%s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	ser, err := series.ReadJSONL(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ser.Clock != series.ClockOrdinal || ser.Interval != 4 {
		t.Fatalf("clock=%s interval=%g, want ordinal/4", ser.Clock, ser.Interval)
	}
	// 9 completions at window size 4 seal exactly 2 windows; the 9th
	// completion sits in the still-open third window.
	if len(ser.Windows) != 2 {
		t.Fatalf("windows=%d, want 2", len(ser.Windows))
	}
	for i := range ser.Windows {
		win := &ser.Windows[i]
		var reqs int64
		for k, v := range win.Counters {
			if strings.HasPrefix(k, "sdem.serve.requests") {
				reqs += v
			}
		}
		if reqs != 4 {
			t.Fatalf("window %d: requests=%d, want 4\ncounters: %v", i, reqs, win.Counters)
		}
		sk := win.Sketches["sdem.serve.latency_ms"]
		if sk == nil || sk.Count() != 4 {
			t.Fatalf("window %d: latency sketch missing or wrong count: %+v", i, sk)
		}
	}
}

// TestDebugSeriesRetain checks /debug/series keeps only the most recent
// seriesRetain windows, as a well-formed series starting at the oldest
// window kept.
func TestDebugSeriesRetain(t *testing.T) {
	s := New(Config{
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		SeriesWindow: 1,
		TraceSample:  -1,
	})
	for i := 0; i < seriesRetain+5; i++ {
		if w := post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()}); w.Code != http.StatusOK {
			t.Fatalf("solve %d: %d\n%s", i, w.Code, w.Body.String())
		}
	}
	ser, err := series.ReadJSONL(get(t, s, "/debug/series").Body)
	if err != nil {
		t.Fatal(err)
	}
	// Each completion seals its one-request window; of the seriesRetain+5
	// sealed, the series keeps the last seriesRetain, from ordinal 5.
	if len(ser.Windows) != seriesRetain || ser.Origin != 5 { //lint:allow floatcmp: the ordinal origin is a small integer
		t.Fatalf("%d windows from origin %v, want %d from 5", len(ser.Windows), ser.Origin, seriesRetain)
	}
}

// TestDebugSeriesDisabled covers the negative-SeriesWindow opt-out.
func TestDebugSeriesDisabled(t *testing.T) {
	s := New(Config{
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		SeriesWindow: -1,
	})
	if w := post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()}); w.Code != http.StatusOK {
		t.Fatalf("solve: %d", w.Code)
	}
	if w := get(t, s, "/debug/series"); w.Code != http.StatusNotFound {
		t.Fatalf("disabled series must 404, got %d", w.Code)
	}
}

// TestMetricsUnchangedBySeries pins the acceptance criterion that the
// /metrics exposition is byte-identical whether the windowed series is
// enabled or not: the collector only reads recorder snapshots, it never
// writes metrics of its own. The latency family is excluded from the
// comparison — it is the exposition's one intentionally wall-clock
// (nondeterministic) family, different between any two runs regardless.
func TestMetricsUnchangedBySeries(t *testing.T) {
	expose := func(window int) string {
		s := New(Config{
			Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
			SeriesWindow: window,
		})
		for i := 0; i < 5; i++ {
			if w := post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()}); w.Code != http.StatusOK {
				t.Fatalf("solve %d: %d", i, w.Code)
			}
		}
		w := get(t, s, "/metrics")
		if w.Code != http.StatusOK {
			t.Fatalf("/metrics: %d", w.Code)
		}
		var kept []string
		for _, line := range strings.Split(w.Body.String(), "\n") {
			if strings.Contains(line, "latency") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	on, off := expose(4), expose(-1)
	if on != off {
		t.Fatalf("exposition differs with series on/off:\n--- on ---\n%s\n--- off ---\n%s", on, off)
	}
}

// TestServeProfileMatchesProducerKeys pins the built-in serve profile
// to the keys the middleware records: over three sealed /debug/series
// windows, every objective of slo.ServeSpecs must find eligible
// windows. An objective whose keys match nothing judges zero windows
// and passes silently.
func TestServeProfileMatchesProducerKeys(t *testing.T) {
	s := New(Config{
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		SeriesWindow: 4,
	})
	for i := 0; i < 12; i++ {
		if w := post(t, s, "/v1/solve", TaskRequest{Tasks: commonRelease()}); w.Code != http.StatusOK {
			t.Fatalf("solve %d: %d\n%s", i, w.Code, w.Body.String())
		}
	}
	ser, err := series.ReadJSONL(get(t, s, "/debug/series").Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(ser.Windows) != 3 {
		t.Fatalf("windows=%d, want 3", len(ser.Windows))
	}
	v, err := slo.Evaluate(ser, slo.ServeSpecs(0.1, 250))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Results) != 2 {
		t.Fatalf("serve profile judged %d objectives, want 2", len(v.Results))
	}
	for _, r := range v.Results {
		if r.Windows == 0 {
			t.Errorf("objective %s judged no window: its keys match nothing sdemd records", r.Name)
		}
	}
}
