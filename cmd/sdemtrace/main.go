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
// -verify switches to the CI contract: every trace must be a well-formed
// tree — exactly one root span named by the serve path ("request"),
// parent indices that precede their children, no never-ended spans,
// children contained in their parents, and the union-length of the
// root's direct children no longer than the root itself (union, not sum:
// parallel batch items legitimately overlap). Violations go to stderr
// and the exit status is nonzero.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"sdem/internal/stats"
)

// span mirrors one element of wspan's AppendJSON spans array.
type span struct {
	Name    string            `json:"name"`
	Parent  int               `json:"parent"`
	SpanID  string            `json:"span_id"`
	StartNs int64             `json:"start_ns"`
	DurNs   int64             `json:"dur_ns"` // -1: never ended
	Notes   map[string]string `json:"notes,omitempty"`
}

// trace mirrors wspan's AppendJSON document.
type trace struct {
	TraceID      string `json:"trace_id"`
	RemoteParent string `json:"remote_parent,omitempty"`
	Spans        []span `json:"spans"`
}

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
			errs := verifyTrace(&traces[i])
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
// Blank lines and "null" records (a nil trace's AppendJSON) are skipped.
func read(files []string) ([]trace, error) {
	var traces []trace
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
			var t trace
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

// verifyTrace checks the structural invariants one span tree must hold.
func verifyTrace(t *trace) []error {
	var errs []error
	if len(t.Spans) == 0 {
		return []error{fmt.Errorf("no spans")}
	}
	if len(t.TraceID) != 32 {
		errs = append(errs, fmt.Errorf("trace_id %q is not 32 hex chars", t.TraceID))
	}
	root := t.Spans[0]
	if root.Parent != -1 {
		errs = append(errs, fmt.Errorf("first span %q has parent %d, want -1 (root)", root.Name, root.Parent))
	}
	for i, sp := range t.Spans {
		if i > 0 && sp.Parent == -1 {
			errs = append(errs, fmt.Errorf("span %d %q is a second root", i, sp.Name))
			continue
		}
		if i > 0 && (sp.Parent < 0 || sp.Parent >= i) {
			errs = append(errs, fmt.Errorf("span %d %q: orphan — parent index %d does not precede it", i, sp.Name, sp.Parent))
			continue
		}
		if sp.DurNs < 0 {
			errs = append(errs, fmt.Errorf("span %d %q never ended", i, sp.Name))
			continue
		}
		if i == 0 {
			continue
		}
		p := t.Spans[sp.Parent]
		if p.DurNs >= 0 && (sp.StartNs < p.StartNs || sp.StartNs+sp.DurNs > p.StartNs+p.DurNs) {
			errs = append(errs, fmt.Errorf("span %d %q [%d,%d]ns escapes parent %q [%d,%d]ns",
				i, sp.Name, sp.StartNs, sp.StartNs+sp.DurNs,
				p.Name, p.StartNs, p.StartNs+p.DurNs))
		}
	}
	// The ISSUE-named gate, independent of the per-child containment
	// check above: stage coverage of the request span. Union, not sum —
	// parallel batch item spans overlap and must not trip this.
	if root.DurNs >= 0 {
		if u := stageUnion(t); u > root.DurNs {
			errs = append(errs, fmt.Errorf("stage union %dns exceeds the %dns request span", u, root.DurNs))
		}
	}
	return errs
}

// stageUnion sweeps the ended direct children of the root and returns
// the length of the union of their intervals in nanoseconds.
func stageUnion(t *trace) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, sp := range t.Spans {
		if i == 0 || sp.Parent != 0 || sp.DurNs < 0 {
			continue
		}
		ivs = append(ivs, iv{sp.StartNs, sp.StartNs + sp.DurNs})
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, hi int64
	hi = math.MinInt64
	for _, v := range ivs {
		if v.lo > hi {
			total += v.hi - v.lo
			hi = v.hi
		} else if v.hi > hi {
			total += v.hi - hi
			hi = v.hi
		}
	}
	return total
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
func attribute(w io.Writer, traces []trace) error {
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
		if un := root.DurNs - stageUnion(t); un > 0 {
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
