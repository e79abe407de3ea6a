package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"sdem/internal/faults"
	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/resilient"
	"sdem/internal/serve"
	"sdem/internal/sim"
	"sdem/internal/telemetry"
	"sdem/internal/workload"
)

// The as-run trace a recorded run defers must read, byte for byte, as the
// eager oracle (emitTraceEager) would have recorded it at Result time:
// whatever the caller does to the schedule after Result, however the
// recorder is merged, and on every read.

// pinTrace runs scenario twice, with the deferred trace and with the
// eager oracle, and requires the Chrome trace each run's read returns to
// be equal, and a second read of the deferred run to equal its first. It
// returns the deferred trace.
func pinTrace(t *testing.T, name string, scenario func() (read func() []byte)) []byte {
	t.Helper()
	read := scenario()
	got := read()
	if again := read(); !bytes.Equal(again, got) {
		t.Errorf("%s: second read differs from the first:\n%s\nvs\n%s", name, again, got)
	}
	restore := sim.UseEagerTrace()
	eager := scenario()
	restore()
	if want := eager(); !bytes.Equal(got, want) {
		t.Errorf("%s: deferred trace differs from the eager oracle:\n%s\nvs\n%s", name, got, want)
	}
	if !bytes.Contains(got, []byte(`"cat":"sim"`)) {
		t.Errorf("%s: trace holds no as-run events:\n%s", name, got)
	}
	return got
}

// chrome reads rec's Chrome trace.
func chrome(t *testing.T, rec *telemetry.Recorder) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rec.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// oracleSystems are the default platform and its leak-free variant, on
// which no gap sleeps.
func oracleSystems() []power.System {
	leakFree := power.DefaultSystem()
	leakFree.Core.Static = 0
	leakFree.Memory.Static = 0
	return []power.System{power.DefaultSystem(), leakFree}
}

func TestDeferredTraceMatchesEagerOnline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		n := 1 + rng.Intn(60)
		seed := rng.Int63()
		tasks, err := workload.Synthetic(workload.SyntheticConfig{N: n}, seed)
		if err != nil {
			t.Fatal(err)
		}
		sys := oracleSystems()[i%2]
		pinTrace(t, "sdem-on", func() func() []byte {
			rec := telemetry.New().Child(i + 1)
			if _, err := online.Schedule(tasks, sys, online.Options{Cores: sys.Cores, Telemetry: rec}); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			return func() []byte { return chrome(t, rec) }
		})
	}
}

// TestDeferredTraceMatchesEagerResilient replays faulted schedules, whose
// checkpoint slices Execute coalesces after Result: the trace must show
// the run Result audited, slices and all.
func TestDeferredTraceMatchesEagerResilient(t *testing.T) {
	sliced, misses := false, false
	for seed := int64(1); seed <= 16; seed++ {
		tasks, err := workload.Synthetic(workload.SyntheticConfig{N: 3 + int(seed%6)}, seed)
		if err != nil {
			t.Fatal(err)
		}
		sys := power.DefaultSystem()
		onl, err := online.Schedule(tasks, sys, online.Options{Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		plan := faults.Generate(faults.Config{Intensity: 0.9}, tasks, sys, seed)
		var segments int
		got := pinTrace(t, "resilient", func() func() []byte {
			rec := telemetry.New().Child(1)
			pol := resilient.DefaultPolicy()
			pol.Telemetry = rec
			res, err := resilient.Execute(onl.Schedule, tasks, sys, plan, pol)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			segments = 0
			for _, segs := range res.Sim.Schedule.Cores {
				segments += len(segs)
			}
			return func() []byte { return chrome(t, rec) }
		})
		if bytes.Count(got, []byte(`"name":"task `)) > segments {
			sliced = true
		}
		misses = misses || bytes.Contains(got, []byte(`"deadline miss"`))
	}
	if !sliced {
		t.Error("no faulted replay coalesced slices after Result; the case is vacuous")
	}
	if !misses {
		t.Error("no faulted replay missed a deadline; the miss instants are unpinned")
	}
}

// TestDeferredTraceMatchesEagerBatch reads /debug/trace of a /v1/batch
// request, whose items run on child recorders merged into the request's.
func TestDeferredTraceMatchesEagerBatch(t *testing.T) {
	var items []serve.BatchItemRequest
	for i, sched := range []string{"sdem-on", "mbkps", "sdem-on", "race"} {
		tasks, err := workload.Synthetic(workload.SyntheticConfig{N: 10 + 10*i}, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, serve.BatchItemRequest{Op: "simulate", TaskRequest: serve.TaskRequest{Tasks: tasks, Scheduler: sched}})
	}
	body, err := json.Marshal(serve.BatchRequest{Requests: items})
	if err != nil {
		t.Fatal(err)
	}
	got := pinTrace(t, "batch", func() func() []byte {
		h := serve.New(serve.Config{Workers: 2, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}).Handler()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("batch: %d\n%s", w.Code, w.Body.String())
		}
		return func() []byte {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/trace/1?format=chrome", nil))
			if w.Code != http.StatusOK {
				t.Fatalf("trace: %d\n%s", w.Code, w.Body.String())
			}
			return w.Body.Bytes()
		}
	})
	for pid := range items {
		if !bytes.Contains(got, []byte(fmt.Sprintf(`"name":"process_name","ph":"M","pid":%d,`, pid))) {
			t.Errorf("batch trace lacks item %d's process:\n%s", pid, got)
		}
	}
}
