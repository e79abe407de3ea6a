// Command sdemtrace turns the wall-clock span trees emitted by the
// sdemd serve path (sdemload -trace-out, or /debug/trace/{id}?format=wall)
// into numbers a human can act on: per-stage latency quantiles and a
// critical-path attribution table answering "where did the p99 go —
// queue wait, cache, solve, encode, or the socket?".
//
// Input is JSONL, one trace per line, read from the file arguments or
// stdin when none are given:
//
//	sdemload -addr $ADDR -trace-out traces.jsonl ...
//	sdemtrace traces.jsonl
//	curl -s $ADDR/debug/trace/42?format=wall | sdemtrace
//
// -verify switches to the CI contract, wspan.Doc.Verify: every trace must
// be a well-formed tree — exactly one root span, parent indices that
// precede their children, no never-ended spans, children contained in
// their parents, and the union-length of the root's direct children no
// longer than the root itself (union, not sum: parallel batch items
// legitimately overlap). Violations go to stderr and the exit status is
// nonzero.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"sdem/internal/stats"
	"sdem/internal/telemetry/wspan"
)

func main() {
	verify := flag.Bool("verify", false, "check span-tree invariants instead of printing tables; nonzero exit on any violation")
	flag.Parse()
	if err := run(os.Stdout, os.Stderr, *verify, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "sdemtrace:", err)
		os.Exit(1)
	}
}

func run(w, diag io.Writer, verify bool, files []string) error {
	traces, err := read(files)
	if err != nil {
		return err
	}
	if len(traces) == 0 {
		return fmt.Errorf("no traces in input")
	}
	if verify {
		bad := 0
		for i, t := range traces {
			errs := traces[i].Verify()
			if len(errs) == 0 {
				continue
			}
			bad++
			for _, e := range errs {
				fmt.Fprintf(diag, "trace %d (%s): %v\n", i+1, t.TraceID, e)
			}
		}
		if bad > 0 {
			return fmt.Errorf("%d of %d traces violate span-tree invariants", bad, len(traces))
		}
		fmt.Fprintf(w, "sdemtrace: %d traces verified, 0 violations\n", len(traces))
		return nil
	}
	return attribute(w, traces)
}

// read parses JSONL traces from the named files, or stdin when none.
// Blank lines and "null" records (a nil trace's document) are skipped.
func read(files []string) ([]wspan.Doc, error) {
	var traces []wspan.Doc
	scan := func(name string, r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		line := 0
		for sc.Scan() {
			line++
			b := bytes.TrimSpace(sc.Bytes())
			if len(b) == 0 || bytes.Equal(b, []byte("null")) {
				continue
			}
			var t wspan.Doc
			if err := json.Unmarshal(b, &t); err != nil {
				return fmt.Errorf("%s:%d: %v", name, line, err)
			}
			traces = append(traces, t)
		}
		return sc.Err()
	}
	if len(files) == 0 {
		return traces, scan("stdin", os.Stdin)
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		err = scan(name, f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return traces, nil
}

// stageAgg accumulates one stage's per-trace millisecond totals.
type stageAgg struct {
	name    string
	durs    []float64 // per-trace total, ms
	totalNs int64
}

// attribute prints the critical-path table: one row per span name with
// per-trace-total quantiles and the share of all request wall time the
// stage accounts for. "(untracked)" is request time no stage covered.
// Output ordering is deterministic: request first, then by total time
// descending with name as the tiebreak.
func attribute(w io.Writer, traces []wspan.Doc) error {
	byName := make(map[string]*stageAgg)
	var rootTotalNs int64
	used := 0
	for i := range traces {
		t := &traces[i]
		if len(t.Spans) == 0 || t.Spans[0].DurNs < 0 {
			continue
		}
		used++
		root := t.Spans[0]
		rootTotalNs += root.DurNs

		perTrace := make(map[string]int64)
		for _, sp := range t.Spans {
			if sp.DurNs >= 0 {
				perTrace[sp.Name] += sp.DurNs
			}
		}
		if un := root.DurNs - t.StageUnion(); un > 0 {
			perTrace["(untracked)"] = un
		}
		for name, ns := range perTrace {
			a := byName[name]
			if a == nil {
				a = &stageAgg{name: name}
				byName[name] = a
			}
			a.durs = append(a.durs, float64(ns)/1e6)
			a.totalNs += ns
		}
	}
	if used == 0 {
		return fmt.Errorf("no complete traces (every root span still open)")
	}

	rootName := traces[0].Spans[0].Name
	rows := make([]*stageAgg, 0, len(byName))
	for _, a := range byName {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool {
		if (rows[i].name == rootName) != (rows[j].name == rootName) {
			return rows[i].name == rootName
		}
		if rows[i].totalNs != rows[j].totalNs {
			return rows[i].totalNs > rows[j].totalNs
		}
		return rows[i].name < rows[j].name
	})

	fmt.Fprintf(w, "sdemtrace: %d traces, %d stages, %.1f ms total request time\n",
		used, len(rows), float64(rootTotalNs)/1e6)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "stage\ttraces\tp50 ms\tp99 ms\tmax ms\tshare %\t")
	for _, a := range rows {
		sort.Float64s(a.durs)
		share := 100 * float64(a.totalNs) / float64(rootTotalNs)
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.1f\t\n",
			a.name, len(a.durs),
			stats.Quantile(a.durs, 0.50), stats.Quantile(a.durs, 0.99), a.durs[len(a.durs)-1], share)
	}
	return tw.Flush()
}
