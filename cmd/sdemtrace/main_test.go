// sdemtrace tests: the verifier against both real wspan output and
// hand-built corrupt documents, the attribution table's arithmetic and
// determinism against fixed synthetic traces, and both outputs on
// recorded sdemd traces against goldens.
package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdem/internal/telemetry/wspan"
)

// realTraceLine builds one JSONL record through the actual wspan
// package, so a format drift between producer and consumer fails here.
func realTraceLine(t *testing.T) []byte {
	t.Helper()
	tr := wspan.New("request")
	sp := tr.Root().Start("cache")
	sp.Note("outcome", "miss")
	inner := sp.Start("solve")
	inner.End()
	sp.End()
	esp := tr.Root().Start("encode")
	esp.End()
	tr.Finish()
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func runOn(t *testing.T, verify bool, input string) (out, diag string, err error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	if werr := os.WriteFile(path, []byte(input), 0o644); werr != nil {
		t.Fatal(werr)
	}
	var ob, db bytes.Buffer
	err = run(&ob, &db, verify, []string{path})
	return ob.String(), db.String(), err
}

func TestVerifyAcceptsRealWspanOutput(t *testing.T) {
	input := string(realTraceLine(t)) + "null\n\n" + string(realTraceLine(t))
	out, diag, err := runOn(t, true, input)
	if err != nil {
		t.Fatalf("verify rejected real wspan output: %v\n%s", err, diag)
	}
	if !strings.Contains(out, "2 traces verified, 0 violations") {
		t.Errorf("verify summary wrong (null/blank lines must not count): %q", out)
	}
}

// ok is a minimal valid document the corrupt cases below mutate.
const ok = `{"trace_id":"0123456789abcdef0123456789abcdef","spans":[` +
	`{"name":"request","parent":-1,"span_id":"0000000000000001","start_ns":0,"dur_ns":1000},` +
	`{"name":"solve","parent":0,"span_id":"0000000000000002","start_ns":100,"dur_ns":500}]}`

func TestVerifyViolations(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"orphan parent", `{"trace_id":"0123456789abcdef0123456789abcdef","spans":[` +
			`{"name":"request","parent":-1,"span_id":"01","start_ns":0,"dur_ns":1000},` +
			`{"name":"solve","parent":5,"span_id":"02","start_ns":0,"dur_ns":10}]}`, "orphan"},
		{"second root", `{"trace_id":"0123456789abcdef0123456789abcdef","spans":[` +
			`{"name":"request","parent":-1,"span_id":"01","start_ns":0,"dur_ns":1000},` +
			`{"name":"request","parent":-1,"span_id":"02","start_ns":0,"dur_ns":10}]}`, "second root"},
		{"never ended", `{"trace_id":"0123456789abcdef0123456789abcdef","spans":[` +
			`{"name":"request","parent":-1,"span_id":"01","start_ns":0,"dur_ns":1000},` +
			`{"name":"solve","parent":0,"span_id":"02","start_ns":0,"dur_ns":-1}]}`, "never ended"},
		{"child escapes parent", `{"trace_id":"0123456789abcdef0123456789abcdef","spans":[` +
			`{"name":"request","parent":-1,"span_id":"01","start_ns":0,"dur_ns":1000},` +
			`{"name":"solve","parent":0,"span_id":"02","start_ns":900,"dur_ns":500}]}`, "escapes parent"},
		{"bad trace id", `{"trace_id":"xyz","spans":[` +
			`{"name":"request","parent":-1,"span_id":"01","start_ns":0,"dur_ns":1000}]}`, "32 hex"},
		{"empty trace", `{"trace_id":"0123456789abcdef0123456789abcdef","spans":[]}`, "no spans"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, diag, err := runOn(t, true, ok+"\n"+tc.doc+"\n")
			if err == nil {
				t.Fatalf("verify accepted %s", tc.name)
			}
			if !strings.Contains(diag, tc.want) {
				t.Errorf("diagnostic for %s lacks %q: %q", tc.name, tc.want, diag)
			}
			if !strings.Contains(err.Error(), "1 of 2 traces") {
				t.Errorf("violation count wrong: %v", err)
			}
		})
	}
}

// TestVerifyUnionTolerance: two direct children that overlap in time
// (parallel batch items) whose summed duration exceeds the root must
// still verify — the gate is union length, not the sum.
func TestVerifyUnionTolerance(t *testing.T) {
	doc := `{"trace_id":"0123456789abcdef0123456789abcdef","spans":[` +
		`{"name":"request","parent":-1,"span_id":"01","start_ns":0,"dur_ns":1000},` +
		`{"name":"item","parent":0,"span_id":"02","start_ns":0,"dur_ns":900},` +
		`{"name":"item","parent":0,"span_id":"03","start_ns":50,"dur_ns":900}]}`
	if _, diag, err := runOn(t, true, doc+"\n"); err != nil {
		t.Fatalf("overlapping stages rejected (sum instead of union?): %v\n%s", err, diag)
	}
}

// Two fixed traces with known per-stage totals for the arithmetic check:
//
//	trace A: request 2000ns; solve 1000 (one span); encode 400; 600 untracked
//	trace B: request 1000ns; solve 800 (two 400ns spans back to back); 200 untracked
const aggInput = `{"trace_id":"0123456789abcdef0123456789abcdef","spans":[` +
	`{"name":"request","parent":-1,"span_id":"01","start_ns":0,"dur_ns":2000},` +
	`{"name":"solve","parent":0,"span_id":"02","start_ns":0,"dur_ns":1000},` +
	`{"name":"encode","parent":0,"span_id":"03","start_ns":1000,"dur_ns":400}]}
{"trace_id":"abcdef0123456789abcdef0123456789","spans":[` +
	`{"name":"request","parent":-1,"span_id":"01","start_ns":0,"dur_ns":1000},` +
	`{"name":"solve","parent":0,"span_id":"02","start_ns":0,"dur_ns":400},` +
	`{"name":"solve","parent":0,"span_id":"03","start_ns":400,"dur_ns":400}]}
`

func TestAttributionTable(t *testing.T) {
	out, _, err := runOn(t, false, aggInput)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2 traces") {
		t.Errorf("trace count missing: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// request first, then stages by total time: solve (1800) before
	// (untracked) (800) before encode (400).
	var order []string
	for _, l := range lines[2:] {
		order = append(order, strings.Fields(l)[0])
	}
	want := []string{"request", "solve", "(untracked)", "encode"}
	if len(order) != len(want) {
		t.Fatalf("row count %d, want %d:\n%s", len(order), len(want), out)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("row order %v, want %v", order, want)
		}
	}
	// solve share: 1800ns of 3000ns request time = 60.0%.
	for _, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "solve") {
			if !strings.Contains(l, "60.0") {
				t.Errorf("solve share wrong: %q", l)
			}
			// per-trace totals 0.001ms and 0.0008ms -> max 0.001.
			if !strings.Contains(l, "0.001") {
				t.Errorf("solve quantiles wrong: %q", l)
			}
		}
	}
}

func TestAttributionDeterministic(t *testing.T) {
	a, _, err := runOn(t, false, aggInput)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runOn(t, false, aggInput)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("attribution output not deterministic:\n%s\n---\n%s", a, b)
	}
}

func TestNoTracesIsAnError(t *testing.T) {
	if _, _, err := runOn(t, true, "null\n\n"); err == nil {
		t.Error("verify passed on empty input")
	}
	if _, _, err := runOn(t, false, ""); err == nil {
		t.Error("attribution passed on empty input")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current sdemtrace")

// TestRecordedTraces pins the table and the -verify summary on span trees
// recorded from a local sdemd (sdemload -trace-out, simulate and solve
// traffic), so a change to the reader or the tree contract that moves
// either output fails here.
func TestRecordedTraces(t *testing.T) {
	in := filepath.Join("testdata", "traces.jsonl")
	for _, tc := range []struct {
		golden string
		verify bool
	}{{"table.golden", false}, {"verify.golden", true}} {
		var out, diag bytes.Buffer
		if err := run(&out, &diag, tc.verify, []string{in}); err != nil {
			t.Fatalf("%s: %v\n%s", tc.golden, err, diag.String())
		}
		path := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s differs (run with -update to rewrite):\ngot:\n%s\nwant:\n%s", path, out.Bytes(), want)
		}
	}
}
