// Command benchreport converts `go test -bench -benchmem` output into a
// stable JSON snapshot so benchmark baselines can be committed and
// diffed across PRs.
//
// Usage:
//
//	go test -bench 'Solve|Audit' -benchmem ./... | go run ./cmd/benchreport -out BENCH_6.json
//
// The report strips the -N GOMAXPROCS suffix from benchmark names,
// records ns/op, B/op, and allocs/op plus any custom unit columns, and
// sorts entries by name so the file is deterministic for a fixed
// benchmark outcome.
//
// With -compare BASELINE.json the tool additionally gates count
// regressions: every benchmark present in both the baseline and the new
// run has its allocs/op and its solver work units (workUnits: evals/op,
// pieces/op, cells/op, blocks/op, slope_evals/op) compared, and the exit
// status is 1 if any rose by more than maxAllocGrowth (5%).
// Only counts are gated — unlike wall time they are deterministic for a
// fixed binary, so the gate never flakes on a loaded CI machine. A work
// unit the baseline entry lacks is noted, not gated. A baseline benchmark
// the run lacks fails the run before anything is written: a package whose
// tests did not build, or a benchmark that did not run, would otherwise
// pass the gate and leave a partial snapshot.
//
// With -merge EXISTING.json the emitted document is the union of the
// existing report and the new run: entries with the same package and
// name are replaced by the new run, everything else is kept. This is
// how out-of-band benchmark producers (`sdemload -campaign`) land their
// summary lines in the same baseline file `go test -bench` feeds —
// merge only shapes the output; the -compare gate still judges the
// parsed run alone.
//
// With -ab-base BASE.txt -ab-change CHANGE.txt the tool reads no stdin
// and compares two sides' concatenated `go test -bench` outputs instead:
// the i-th run of a benchmark on one side pairs with its i-th run on the
// other, and the table gives each benchmark's median ns/op per side and
// the median change/base ratio with its quartiles. `make bench-ab
// BASE=<rev>` produces the two files by alternating the runs, so each
// pair shares the host's state.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark result line.
type Entry struct {
	Name        string             `json:"name"`
	Package     string             `json:"package,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Custom      map[string]float64 `json:"custom,omitempty"`
}

// Report is the emitted document.
type Report struct {
	GoVersion string `json:"go_version,omitempty"`
	// CPU is the `cpu:` header of the run: the host the ns/op were
	// measured on.
	CPU        string  `json:"cpu,omitempty"`
	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	merge := flag.String("merge", "", "existing report to merge the parsed run into (same package+name replaced, rest kept; shapes the output only, never the gates)")
	compare := flag.String("compare", "", "baseline report to gate allocs/op and work-unit regressions against")
	abBase := flag.String("ab-base", "", "A/B mode: the base side's `go test -bench` output (needs -ab-change; reads no stdin)")
	abChange := flag.String("ab-change", "", "A/B mode: the change side's `go test -bench` output")
	flag.Parse()
	if *abBase != "" || *abChange != "" {
		if *abBase == "" || *abChange == "" {
			fmt.Fprintln(os.Stderr, "benchreport: -ab-base and -ab-change go together")
			os.Exit(1)
		}
		if err := runAB(os.Stdout, *abBase, *abChange); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		return
	}

	report, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	if len(report.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchreport: no benchmark lines on stdin")
		os.Exit(1)
	}
	var baseline Report
	if *compare != "" {
		baseData, err := os.ReadFile(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(baseData, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: parsing %s: %v\n", *compare, err)
			os.Exit(1)
		}
		if gone := absent(baseline, report); len(gone) > 0 {
			fmt.Fprintf(os.Stderr, "benchreport: %d benchmark(s) of %s missing from the run (a package failed to build, or a benchmark did not run); nothing written:\n", len(gone), *compare)
			for _, id := range gone {
				fmt.Fprintf(os.Stderr, "  MISSING   %s\n", id)
			}
			os.Exit(1)
		}
	}
	emit := report
	if *merge != "" {
		baseData, err := os.ReadFile(*merge)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		var existing Report
		if err := json.Unmarshal(baseData, &existing); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: parsing %s: %v\n", *merge, err)
			os.Exit(1)
		}
		emit = mergeReports(existing, report)
	}
	data, err := json.MarshalIndent(emit, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}

	if *compare == "" {
		return
	}
	regressions := compareCounts(os.Stderr, baseline, report)
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchreport: %d allocs/op or work-unit regression(s) vs %s (limit +%.0f%%)\n",
			regressions, *compare, maxAllocGrowth*100)
		os.Exit(1)
	}
}

// absent lists, as package/name in baseline order, the baseline
// benchmarks the current run lacks. Entries without a package were
// merged in from outside `go test` (the sdemload campaign line) and no
// benchmark run produces them, so they are not expected.
func absent(baseline, current Report) []string {
	type key struct{ pkg, name string }
	ran := make(map[key]bool, len(current.Benchmarks))
	for _, e := range current.Benchmarks {
		ran[key{e.Package, e.Name}] = true
	}
	var gone []string
	for _, e := range baseline.Benchmarks {
		if e.Package != "" && !ran[key{e.Package, e.Name}] {
			gone = append(gone, e.Package+"/"+e.Name)
		}
	}
	return gone
}

// mergeReports unions an existing report with the current run: entries
// sharing (package, name) are replaced by the current run, everything
// else survives, and the result is re-sorted so the file stays
// deterministic. The current run's GoVersion wins when it has one.
func mergeReports(existing, cur Report) Report {
	type key struct{ pkg, name string }
	replaced := make(map[key]bool, len(cur.Benchmarks))
	for _, e := range cur.Benchmarks {
		replaced[key{e.Package, e.Name}] = true
	}
	out := Report{GoVersion: cur.GoVersion, CPU: cur.CPU}
	if out.GoVersion == "" {
		out.GoVersion = existing.GoVersion
	}
	if out.CPU == "" {
		out.CPU = existing.CPU
	}
	for _, e := range existing.Benchmarks {
		if !replaced[key{e.Package, e.Name}] {
			out.Benchmarks = append(out.Benchmarks, e)
		}
	}
	out.Benchmarks = append(out.Benchmarks, cur.Benchmarks...)
	sort.Slice(out.Benchmarks, func(i, j int) bool {
		a, b := out.Benchmarks[i], out.Benchmarks[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Name < b.Name
	})
	return out
}

// maxAllocGrowth is the largest relative allocs/op or work-unit growth
// over the baseline that the -compare gate lets pass.
const maxAllocGrowth = 0.05

// workUnits are the custom units gated like allocs/op: solver work
// counts taken from one recorded solve, which do not depend on the host.
var workUnits = [...]string{"evals/op", "pieces/op", "cells/op", "blocks/op", "slope_evals/op"}

// compareCounts reports every benchmark's allocs/op and work-unit
// movement against the baseline and returns the number of regressions
// beyond maxAllocGrowth. Benchmarks present on only one side are noted but
// never count here: a new benchmark has no baseline, and one the run
// lacks is absent's to fail. A work unit the baseline entry lacks is
// noted, not gated.
func compareCounts(w io.Writer, baseline, current Report) int {
	type key struct{ pkg, name string }
	base := make(map[key]*Entry, len(baseline.Benchmarks))
	for i := range baseline.Benchmarks {
		e := &baseline.Benchmarks[i]
		base[key{e.Package, e.Name}] = e
	}
	regressions := 0
	for i := range current.Benchmarks {
		e := &current.Benchmarks[i]
		id := e.Package + "/" + e.Name
		b, ok := base[key{e.Package, e.Name}]
		if !ok {
			fmt.Fprintf(w, "  new       %s: no baseline entry\n", id)
			continue
		}
		delete(base, key{e.Package, e.Name})
		// A run without -benchmem on one side has no allocs/op to gate.
		if b.AllocsPerOp != nil && e.AllocsPerOp != nil && !judge(w, id, "allocs/op", *b.AllocsPerOp, *e.AllocsPerOp) {
			regressions++
		}
		for _, unit := range workUnits {
			now, ok := e.Custom[unit]
			if !ok {
				continue
			}
			old, ok := b.Custom[unit]
			if !ok {
				fmt.Fprintf(w, "  new unit  %s: %s has no baseline\n", id, unit)
				continue
			}
			if !judge(w, id, unit, old, now) {
				regressions++
			}
		}
	}
	// Walk the baseline slice, not the map, so the report order is stable.
	for i := range baseline.Benchmarks {
		e := &baseline.Benchmarks[i]
		if _, left := base[key{e.Package, e.Name}]; left {
			fmt.Fprintf(w, "  removed   %s/%s: present only in baseline\n", e.Package, e.Name)
		}
	}
	return regressions
}

// judge prints one count's movement and reports whether it stayed within
// maxAllocGrowth of the baseline.
func judge(w io.Writer, id, unit string, old, now float64) bool {
	switch {
	case now > old && now > old*(1+maxAllocGrowth):
		fmt.Fprintf(w, "  REGRESSED %s: %s %s -> %s (%+.1f%%)\n", id, unit, num(old), num(now), growthPct(old, now))
		return false
	case now < old:
		fmt.Fprintf(w, "  improved  %s: %s %s -> %s (%+.1f%%)\n", id, unit, num(old), num(now), growthPct(old, now))
	default:
		fmt.Fprintf(w, "  ok        %s: %s %s -> %s\n", id, unit, num(old), num(now))
	}
	return true
}

// num formats a count in its shortest exact form: 52, or 17.5 for a
// mean over several solves.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// growthPct is the relative count change in percent; a zero baseline
// with any growth reads as +Inf, which formats as the honest answer.
func growthPct(old, now float64) float64 {
	if old == 0 { //lint:allow floatcmp: gated counts are exact; this guards the division
		if now == 0 { //lint:allow floatcmp: see above
			return 0
		}
		return math.Inf(1)
	}
	return (now - old) / old * 100
}

type lineScanner interface {
	Scan() bool
	Text() string
	Err() error
}

// parse reads `go test -bench` output. That output names no Go version,
// so the report records the toolchain benchreport runs on: the Makefile
// runs it with the same $(GO) as the benchmarks.
func parse(sc lineScanner) (Report, error) {
	report := Report{GoVersion: runtime.Version()}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			if report.CPU == "" {
				report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			}
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"):
			// environment header, ignored
		case strings.HasPrefix(line, "Benchmark"):
			e, ok := parseBench(line)
			if !ok {
				continue
			}
			e.Package = pkg
			report.Benchmarks = append(report.Benchmarks, e)
		}
	}
	if err := sc.Err(); err != nil {
		return report, err
	}
	// Stable, so repeated runs of one benchmark keep their run order.
	sort.SliceStable(report.Benchmarks, func(i, j int) bool {
		a, b := report.Benchmarks[i], report.Benchmarks[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Name < b.Name
	})
	return report, nil
}

// parseBench parses one result line, e.g.
//
//	BenchmarkAudit-8   12345   9876 ns/op   120 B/op   3 allocs/op
func parseBench(line string) (Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Entry{}, false
	}
	name := fields[0]
	// Strip the -N GOMAXPROCS suffix if present.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e := Entry{Name: name, Iterations: iters}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Entry{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			val := v
			e.BytesPerOp = &val
		case "allocs/op":
			val := v
			e.AllocsPerOp = &val
		default:
			if e.Custom == nil {
				e.Custom = map[string]float64{}
			}
			e.Custom[unit] = v
		}
	}
	return e, true
}
