// Parity tests of the single-pass TaskRequest decoder against the
// json.Decoder path it short-circuits: a differential fuzz on the decoder
// itself, a handler-level table comparing whole responses, and the
// decode micro-benchmarks.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"sdem/internal/power"
)

// stdDecode decodes data exactly as the json.Decoder path of
// Server.decode does: the first JSON value, unknown fields disallowed.
func stdDecode(data []byte) (TaskRequest, error) {
	var req TaskRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// requestDiff names the first field in which a and b differ, or returns
// "". Floats compare by bit pattern (so -0 differs from 0) and a nil
// Tasks differs from an empty one.
func requestDiff(a, b *TaskRequest) string {
	switch {
	case (a.Tasks == nil) != (b.Tasks == nil):
		return fmt.Sprintf("Tasks nil %v vs %v", a.Tasks == nil, b.Tasks == nil)
	case len(a.Tasks) != len(b.Tasks):
		return fmt.Sprintf("len(Tasks) %d vs %d", len(a.Tasks), len(b.Tasks))
	case a.Scheduler != b.Scheduler:
		return fmt.Sprintf("Scheduler %q vs %q", a.Scheduler, b.Scheduler)
	case a.Cores != b.Cores:
		return fmt.Sprintf("Cores %d vs %d", a.Cores, b.Cores)
	case a.IncludeSchedule != b.IncludeSchedule:
		return fmt.Sprintf("IncludeSchedule %v vs %v", a.IncludeSchedule, b.IncludeSchedule)
	case !reflect.DeepEqual(a.System, b.System):
		return fmt.Sprintf("System %+v vs %+v", a.System, b.System)
	case !reflect.DeepEqual(a.Faults, b.Faults):
		return fmt.Sprintf("Faults %+v vs %+v", a.Faults, b.Faults)
	}
	for i := range a.Tasks {
		x, y := a.Tasks[i], b.Tasks[i]
		if x.ID != y.ID || x.Name != y.Name ||
			math.Float64bits(x.Release) != math.Float64bits(y.Release) ||
			math.Float64bits(x.Deadline) != math.Float64bits(y.Deadline) ||
			math.Float64bits(x.Workload) != math.Float64bits(y.Workload) {
			return fmt.Sprintf("task %d: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

// syntheticBody marshals a syntheticSet the way sdembench and sdemload
// write request bodies.
func syntheticBody(tb testing.TB, n int, seed int64, commonRelease, sched bool) []byte {
	tb.Helper()
	body, err := json.Marshal(TaskRequest{Tasks: syntheticSet(tb, n, seed, commonRelease), IncludeSchedule: sched})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// decodeSeeds is the FuzzDecode seed corpus: sdembench-shaped bodies and
// one body per edge the fast decoder must either match or decline.
func decodeSeeds(tb testing.TB) [][]byte {
	return [][]byte{
		syntheticBody(tb, 4, 1, true, false),
		syntheticBody(tb, 3, 2, false, true),
		[]byte(`{}`),
		[]byte(`{"tasks":[]}`),
		[]byte(`{"tasks":[{}]}`),
		[]byte(`{"tasks":[{"ID":1,"Deadline":0.05,"Workload":2e6,"Name":"fft#3"}],"scheduler":"race","cores":2,"include_schedule":false}`),
		[]byte(`{"tasks":[{"ID":1,"Name":"a\u0041"}]}`),
		[]byte(`{"tasks":[{"ID":1,"Name":"tab\there"}]}`),
		[]byte(`{"tasks":[{"ID":1,"Name":"tâche"}]}`),
		[]byte(`{"tasks":[{"id":1,"deadline":0.05}]}`),
		[]byte(`{"Tasks":[{"ID":1}]}`),
		[]byte(`{"tasks":[{"ID":1,"ID":2}]}`),
		[]byte(`{"cores":1,"cores":2}`),
		[]byte(`{"tasks":null}`),
		[]byte(`{"tasks":[null]}`),
		[]byte(`{"scheduler":null}`),
		[]byte(`{"tasks":[{"ID":1,"Workload":1e400}]}`),
		[]byte(`{"tasks":[{"ID":1,"Workload":1e-400}]}`),
		[]byte(`{"tasks":[{"ID":-0,"Release":-0,"Deadline":-0.0e+00}]}`),
		[]byte(`{"tasks":[{"ID":1.0}]}`),
		[]byte(`{"tasks":[{"ID":99999999999999999999}]}`),
		[]byte(`{"cores":"2"}`),
		[]byte(`{"system":{"Cores":2}}`),
		[]byte(`{"faults":{"seed":1,"intensity":0.5}}`),
		[]byte("\xef\xbb\xbf{\"tasks\":[]}"),
		[]byte(" \t\r\n{ \"tasks\" :\t[ { \"ID\" : 1 ,\n\"Deadline\":\r0.05 } ] ,\"include_schedule\" : true }\n"),
		[]byte(`{"tasks":[{"ID":1}]} trailing bytes`),
		[]byte(`{"tasks":[{"ID":1}]}{"tasks":[]}`),
		[]byte(`{"tasks":[{"ID":1},]}`),
		[]byte(`{"tasks":[{"ID":01}]}`),
		[]byte(`{"tasks":[{"Workload":.5}]}`),
		[]byte(`{"tasks":[{"Workload":1.}]}`),
		[]byte(`{"include_schedule":tru}`),
		[]byte(`{"tasks":[{"ID":1}`),
		[]byte(`[]`),
		[]byte(``),
	}
}

// FuzzDecode is the decoder's differential contract: any input the fast
// decoder accepts, json.Decoder with unknown fields disallowed accepts
// too, with the same field values; a declined input leaves the request
// zero; and no accepted value aliases the input bytes.
func FuzzDecode(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		var fast TaskRequest
		if !decodeTaskRequest(in, &fast) {
			if d := requestDiff(&fast, &TaskRequest{}); d != "" {
				t.Fatalf("declined %q but left %s", data, d)
			}
			return
		}
		std, err := stdDecode(data)
		if err != nil {
			t.Fatalf("fast decoder accepted %q, json.Decoder rejects it: %v", data, err)
		}
		if d := requestDiff(&fast, &std); d != "" {
			t.Fatalf("%q decodes differently (fast vs json): %s", data, d)
		}
		for i := range in {
			in[i] = '"'
		}
		if d := requestDiff(&fast, &std); d != "" {
			t.Fatalf("%q: decoded value aliases the input: %s", data, d)
		}
	})
}

// decodeCase is one row of the handler-level parity table.
type decodeCase struct {
	name string
	body string
	fast bool // whether the single-pass decoder accepts the body
}

func decodeCases(t *testing.T) []decodeCase {
	t.Helper()
	sysJSON, err := json.Marshal(power.DefaultSystem())
	if err != nil {
		t.Fatal(err)
	}
	cr := `{"ID":0,"Release":0,"Deadline":0.05,"Workload":2e6,"Name":""},{"ID":1,"Release":0,"Deadline":0.06,"Workload":3e6,"Name":"b"}`
	return []decodeCase{
		{"canonical", `{"tasks":[` + cr + `]}`, true},
		{"synthetic-30", string(syntheticBody(t, 30, 7, false, true)), true},
		{"common-release-100", string(syntheticBody(t, 100, 8, true, false)), true},
		{"all-keys", `{"tasks":[` + cr + `],"scheduler":"race","cores":2,"include_schedule":true}`, true},
		{"odd-whitespace", "\r\n\t{ \"tasks\" : [ {\"ID\" :0 ,\"Deadline\":\t0.05,\n\"Workload\":2e6 } ] }", true},
		{"negative-zero", `{"tasks":[{"ID":-0,"Release":-0,"Deadline":0.05,"Workload":2e6}]}`, true},
		{"trailing-bytes", `{"tasks":[` + cr + `]} and then some`, true},
		{"empty-tasks", `{"tasks":[]}`, true},
		{"no-tasks", `{"scheduler":"mbkp"}`, true},
		{"case-folded", `{"Tasks":[{"ID":0,"Deadline":0.05,"Workload":2e6}]}`, false},
		{"escape", `{"tasks":[{"ID":0,"Deadline":0.05,"Workload":2e6,"Name":"t\u0031"}]}`, false},
		{"non-ascii", `{"tasks":[{"ID":0,"Deadline":0.05,"Workload":2e6,"Name":"tâche"}]}`, false},
		{"system", `{"tasks":[` + cr + `],"system":` + string(sysJSON) + `,"cores":4}`, false},
		{"unknown-key", `{"tasks":[` + cr + `],"bogus":1}`, false},
		{"duplicate-key", `{"tasks":[],"tasks":[` + cr + `]}`, false},
		{"null-tasks", `{"tasks":null}`, false},
		{"null-task", `{"tasks":[null]}`, false},
		{"out-of-range", `{"tasks":[{"ID":0,"Deadline":0.05,"Workload":1e400}]}`, false},
		{"fractional-id", `{"tasks":[{"ID":1.0,"Deadline":0.05,"Workload":2e6}]}`, false},
		{"string-cores", `{"tasks":[` + cr + `],"cores":"2"}`, false},
		{"bom", "\xef\xbb\xbf{\"tasks\":[" + cr + "]}", false},
		{"trailing-comma", `{"tasks":[` + cr + `,]}`, false},
		{"truncated", `{"tasks":[` + cr, false},
		{"top-level-array", `[]`, false},
		{"empty", ``, false},
	}
}

// TestDecodeParityHandlers sends every table body through /v1/solve,
// /v1/simulate and (as a one-item batch) /v1/batch on a server with the
// fast decoder and on one that decodes with json.Decoder alone; status
// and body bytes must match. Both servers see the same request sequence,
// so request IDs, trace URLs and cache outcomes line up.
func TestDecodeParityHandlers(t *testing.T) {
	fast := configuredServer(t, nil)
	std := configuredServer(t, nil)
	std.stdlibDecode = true
	send := func(s *Server, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return w
	}
	for _, c := range decodeCases(t) {
		var req TaskRequest
		if got := decodeTaskRequest([]byte(c.body), &req); got != c.fast {
			t.Errorf("%s: fast decoder accepts = %v, want %v", c.name, got, c.fast)
		}
		for _, ep := range []struct{ path, body string }{
			{"/v1/solve", c.body},
			{"/v1/simulate", c.body},
			{"/v1/batch", `{"requests":[` + c.body + `]}`},
		} {
			got, want := send(fast, ep.path, ep.body), send(std, ep.path, ep.body)
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("%s %s: fast path %d %s\njson.Decoder path %d %s",
					c.name, ep.path, got.Code, got.Body, want.Code, want.Body)
			}
		}
	}
}

// BenchmarkDecodeTaskRequest measures the single-pass decoder on the
// offline-solve body shape (100 common-release tasks) and the simulate
// shape (30 synthetic tasks); BenchmarkDecodeTaskRequestStd is the
// json.Decoder path on the same bytes.
func BenchmarkDecodeTaskRequest(b *testing.B) {
	benchDecode(b, func(data []byte) bool {
		var req TaskRequest
		return decodeTaskRequest(data, &req)
	})
}

func BenchmarkDecodeTaskRequestStd(b *testing.B) {
	benchDecode(b, func(data []byte) bool {
		_, err := stdDecode(data)
		return err == nil
	})
}

func benchDecode(b *testing.B, decode func([]byte) bool) {
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"cr100", syntheticBody(b, 100, 1, true, false)},
		{"n30", syntheticBody(b, 30, 1, false, false)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !decode(bc.body) {
					b.Fatal("body declined")
				}
			}
		})
	}
}
