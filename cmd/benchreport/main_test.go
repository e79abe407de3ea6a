package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with BENCHREPORT_ARGS set, so tests can check its exit status.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("BENCHREPORT_ARGS"); ok {
		os.Args = append([]string{"benchreport"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const sample = `goos: linux
goarch: amd64
pkg: sdem
cpu: Some CPU @ 2.40GHz
BenchmarkAudit-8        	   12345	      9876 ns/op	     120 B/op	       3 allocs/op
BenchmarkSolveCommonRelease-8	     500	   2000000 ns/op	   0.123 joules	  1024 B/op	      17 allocs/op
PASS
pkg: sdem/internal/telemetry
BenchmarkTelemetryDisabled-8	100000000	      1.23 ns/op	       0 B/op	       0 allocs/op
ok  	sdem	1.234s
`

func TestParse(t *testing.T) {
	report, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(report.Benchmarks))
	}
	// Sorted by (package, name): sdem first, then sdem/internal/telemetry.
	audit := report.Benchmarks[0]
	if audit.Name != "BenchmarkAudit" || audit.Package != "sdem" {
		t.Errorf("first entry = %+v", audit)
	}
	if audit.Iterations != 12345 || audit.NsPerOp != 9876 {
		t.Errorf("audit values = %+v", audit)
	}
	if audit.BytesPerOp == nil || *audit.BytesPerOp != 120 || audit.AllocsPerOp == nil || *audit.AllocsPerOp != 3 {
		t.Errorf("audit memstats = %+v", audit)
	}
	solve := report.Benchmarks[1]
	if solve.Custom["joules"] != 0.123 {
		t.Errorf("custom unit lost: %+v", solve)
	}
	tel := report.Benchmarks[2]
	if tel.Package != "sdem/internal/telemetry" || tel.Name != "BenchmarkTelemetryDisabled" {
		t.Errorf("telemetry entry = %+v", tel)
	}
	if tel.AllocsPerOp == nil || *tel.AllocsPerOp != 0 {
		t.Errorf("nil-path allocs = %+v", tel)
	}
	if report.CPU != "Some CPU @ 2.40GHz" {
		t.Errorf("cpu = %q, want the cpu: header", report.CPU)
	}
}

// TestParseGoVersion: bench output carries no Go version line, so parse
// records the running toolchain, and a merge keeps the current run's.
func TestParseGoVersion(t *testing.T) {
	report, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if report.GoVersion != runtime.Version() {
		t.Fatalf("GoVersion = %q, want %q", report.GoVersion, runtime.Version())
	}
	got := mergeReports(Report{GoVersion: "go1.22"}, report)
	if got.GoVersion != runtime.Version() {
		t.Fatalf("merged GoVersion = %q, want the current run's %q", got.GoVersion, runtime.Version())
	}
}

func TestParseSkipsMalformed(t *testing.T) {
	report, err := parse(bufio.NewScanner(strings.NewReader("BenchmarkBroken-8 notanumber 5 ns/op\nBenchmarkShort\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 0 {
		t.Errorf("malformed lines parsed: %+v", report.Benchmarks)
	}
}

func allocs(v float64) *float64 { return &v }

func entry(pkg, name string, a *float64) Entry {
	return Entry{Name: name, Package: pkg, Iterations: 1, NsPerOp: 1, AllocsPerOp: a}
}

func TestCompareAllocs(t *testing.T) {
	baseline := Report{Benchmarks: []Entry{
		entry("sdem", "BenchmarkA", allocs(100)),
		entry("sdem", "BenchmarkB", allocs(100)),
		entry("sdem", "BenchmarkC", allocs(0)),
		entry("sdem", "BenchmarkGone", allocs(5)),
		entry("sdem", "BenchmarkNoMem", nil),
	}}
	current := Report{Benchmarks: []Entry{
		entry("sdem", "BenchmarkA", allocs(104)),   // +4%: within the 5% budget
		entry("sdem", "BenchmarkB", allocs(106)),   // +6%: regression
		entry("sdem", "BenchmarkC", allocs(1)),     // 0 -> 1: regression
		entry("sdem", "BenchmarkFresh", allocs(9)), // no baseline: never gates
		entry("sdem", "BenchmarkNoMem", nil),       // no memstats: never gates
	}}
	var buf strings.Builder
	got := compareCounts(&buf, baseline, current)
	if got != 2 {
		t.Fatalf("compareCounts = %d regressions, want 2\nreport:\n%s", got, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"REGRESSED sdem/BenchmarkB",
		"REGRESSED sdem/BenchmarkC",
		"ok        sdem/BenchmarkA",
		"new       sdem/BenchmarkFresh",
		"removed   sdem/BenchmarkGone",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "REGRESSED sdem/BenchmarkA") {
		t.Errorf("BenchmarkA within budget but flagged:\n%s", out)
	}
}

func TestMergeReports(t *testing.T) {
	existing := Report{GoVersion: "go1.22", Benchmarks: []Entry{
		entry("sdem", "BenchmarkA", allocs(100)),
		entry("", "BenchmarkLoadCampaignSolve", nil),
	}}
	cur := Report{Benchmarks: []Entry{
		{Name: "BenchmarkLoadCampaignSolve", Iterations: 9, NsPerOp: 7,
			Custom: map[string]float64{"rps": 8000}},
	}}
	got := mergeReports(existing, cur)
	if got.GoVersion != "go1.22" {
		t.Fatalf("GoVersion = %q, want the existing one kept", got.GoVersion)
	}
	if len(got.Benchmarks) != 2 {
		t.Fatalf("merged %d entries, want 2: %+v", len(got.Benchmarks), got.Benchmarks)
	}
	// Sorted: the package-less campaign entry before sdem/BenchmarkA.
	if got.Benchmarks[0].Name != "BenchmarkLoadCampaignSolve" || got.Benchmarks[0].NsPerOp != 7 {
		t.Fatalf("campaign entry not replaced by the new run: %+v", got.Benchmarks[0])
	}
	if got.Benchmarks[0].Custom["rps"] != 8000 {
		t.Fatalf("custom units lost in merge: %+v", got.Benchmarks[0])
	}
	if got.Benchmarks[1].Name != "BenchmarkA" {
		t.Fatalf("existing entry lost: %+v", got.Benchmarks)
	}
}

func TestCompareAllocsImprovement(t *testing.T) {
	baseline := Report{Benchmarks: []Entry{entry("sdem", "BenchmarkA", allocs(200))}}
	current := Report{Benchmarks: []Entry{entry("sdem", "BenchmarkA", allocs(50))}}
	var buf strings.Builder
	if got := compareCounts(&buf, baseline, current); got != 0 {
		t.Fatalf("improvement counted as regression:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "improved  sdem/BenchmarkA: allocs/op 200 -> 50 (-75.0%)") {
		t.Errorf("unexpected improvement line:\n%s", buf.String())
	}
}

func worked(pkg, name string, units map[string]float64) Entry {
	return Entry{Name: name, Package: pkg, Iterations: 1, NsPerOp: 1, AllocsPerOp: allocs(10), Custom: units}
}

// TestCompareWorkUnits gates the solver work units like allocs/op, notes
// a unit the baseline lacks without gating it, and leaves other custom
// units ungated.
func TestCompareWorkUnits(t *testing.T) {
	baseline := Report{Benchmarks: []Entry{
		worked("sdem", "BenchmarkDP", map[string]float64{"cells/op": 1275, "blocks/op": 240, "slope_evals/op": 12511}),
		worked("sdem", "BenchmarkScan", map[string]float64{"evals/op": 6, "pieces/op": 1, "joules": 1}),
		worked("sdem", "BenchmarkMean", map[string]float64{"blocks/op": 17.5}),
	}}
	current := Report{Benchmarks: []Entry{
		// blocks/op +10%: regression; slope_evals/op falls; cells/op holds.
		worked("sdem", "BenchmarkDP", map[string]float64{"cells/op": 1275, "blocks/op": 264, "slope_evals/op": 500}),
		// evals/op 6 -> 7: regression; joules is not a work unit.
		worked("sdem", "BenchmarkScan", map[string]float64{"evals/op": 7, "pieces/op": 1, "joules": 100}),
		// blocks/op within budget; cells/op has no baseline: noted only.
		worked("sdem", "BenchmarkMean", map[string]float64{"blocks/op": 18, "cells/op": 36}),
	}}
	var buf strings.Builder
	if got := compareCounts(&buf, baseline, current); got != 2 {
		t.Fatalf("compareCounts = %d regressions, want 2\nreport:\n%s", got, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"REGRESSED sdem/BenchmarkDP: blocks/op 240 -> 264 (+10.0%)",
		"improved  sdem/BenchmarkDP: slope_evals/op 12511 -> 500",
		"ok        sdem/BenchmarkDP: cells/op 1275 -> 1275",
		"REGRESSED sdem/BenchmarkScan: evals/op 6 -> 7",
		"ok        sdem/BenchmarkScan: pieces/op 1 -> 1",
		"ok        sdem/BenchmarkMean: blocks/op 17.5 -> 18",
		"new unit  sdem/BenchmarkMean: cells/op has no baseline",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "joules") {
		t.Errorf("a unit outside workUnits was judged:\n%s", out)
	}
}

// TestCompareAB pins the A/B pairing: the i-th base run of a benchmark
// pairs with its i-th change run, the ratio is the median of the pair
// ratios with nearest-rank quartiles, and one-sided benchmarks are
// listed apart.
func TestCompareAB(t *testing.T) {
	side := func(ns map[string][]float64) Report {
		var sb strings.Builder
		sb.WriteString("pkg: sdem\ncpu: Test CPU\n")
		for round := 0; round < 4; round++ {
			for _, name := range []string{"BenchmarkA", "BenchmarkB", "BenchmarkOnly"} {
				if v, ok := ns[name]; ok {
					sb.WriteString(name + "-2 100 " + strconv.FormatFloat(v[round], 'f', -1, 64) + " ns/op\n")
				}
			}
		}
		rep, err := parse(bufio.NewScanner(strings.NewReader(sb.String())))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := side(map[string][]float64{"BenchmarkA": {100, 200, 400, 800}, "BenchmarkB": {10, 10, 10, 10}})
	change := side(map[string][]float64{"BenchmarkA": {50, 200, 100, 400}, "BenchmarkB": {20, 10, 10, 10}, "BenchmarkOnly": {1, 1, 1, 1}})
	rows, only := compareAB(base, change)
	if len(rows) != 2 || rows[0].id != "sdem/BenchmarkA" || rows[1].id != "sdem/BenchmarkB" {
		t.Fatalf("rows = %+v", rows)
	}
	// A's pair ratios are 0.5, 1, 0.25, 0.5: sorted 0.25, 0.5, 0.5, 1.
	if a := rows[0]; a.pairs != 4 || a.ratio != 0.5 || a.q1 != 0.25 || a.q3 != 0.5 || a.baseNs != 200 || a.changeNs != 100 {
		t.Errorf("A = %+v", a)
	}
	if b := rows[1]; b.ratio != 1 || b.q3 != 1 {
		t.Errorf("B = %+v", b)
	}
	if len(only) != 1 || only[0] != "change only: sdem/BenchmarkOnly" {
		t.Errorf("one-sided = %q", only)
	}
	var sb strings.Builder
	printAB(&sb, base, change, rows, only)
	if !strings.Contains(sb.String(), "base cpu:   Test CPU") {
		t.Errorf("table lacks the cpu header:\n%s", sb.String())
	}
}

// TestAbsentFromRun lists the baseline benchmarks a run lacks — one whose
// package failed to build, one that was not run — in baseline order, and
// ignores merged entries that carry no package.
func TestAbsentFromRun(t *testing.T) {
	baseline := Report{Benchmarks: []Entry{
		entry("sdem", "BenchmarkA", allocs(1)),
		entry("sdem", "BenchmarkNotRun", allocs(1)),
		entry("", "BenchmarkLoadCampaignSimulate", nil),
		entry("sdem/internal/serve", "BenchmarkServeSolveHot", allocs(84)),
	}}
	current := Report{Benchmarks: []Entry{
		entry("sdem", "BenchmarkA", allocs(1)),
		entry("sdem", "BenchmarkFresh", allocs(1)),
	}}
	got := absent(baseline, current)
	want := []string{"sdem/BenchmarkNotRun", "sdem/internal/serve/BenchmarkServeSolveHot"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("absent = %q, want %q", got, want)
	}
	if got := absent(baseline, baseline); len(got) != 0 {
		t.Errorf("a run with every baseline entry lacks %q", got)
	}
}

// TestCompareFailsOnMissing runs the command on the sample output against
// a baseline holding one more benchmark: it must exit 1 and write no
// snapshot. Against the sample's own entries it exits 0 and writes one.
func TestCompareFailsOnMissing(t *testing.T) {
	report, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func(baseline Report) (exit int, wrote bool) {
		data, err := json.Marshal(baseline)
		if err != nil {
			t.Fatal(err)
		}
		base, out := filepath.Join(dir, "base.json"), filepath.Join(dir, "out.json")
		os.Remove(out)
		if err := os.WriteFile(base, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], "-test.run", "^$")
		cmd.Env = append(os.Environ(), "BENCHREPORT_ARGS=-out "+out+" -compare "+base)
		cmd.Stdin = strings.NewReader(sample)
		err = cmd.Run()
		var exitErr *exec.ExitError
		switch {
		case errors.As(err, &exitErr):
			exit = exitErr.ExitCode()
		case err != nil:
			t.Fatal(err)
		}
		_, statErr := os.Stat(out)
		return exit, statErr == nil
	}
	if exit, wrote := run(report); exit != 0 || !wrote {
		t.Errorf("complete run: exit %d, wrote %v; want 0 and a snapshot", exit, wrote)
	}
	partial := report
	partial.Benchmarks = append(append([]Entry(nil), report.Benchmarks...), entry("sdem/internal/serve", "BenchmarkServeSolveHot", allocs(84)))
	if exit, wrote := run(partial); exit != 1 || wrote {
		t.Errorf("run missing a baseline benchmark: exit %d, wrote %v; want 1 and no snapshot", exit, wrote)
	}
}
