package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"sdem/internal/telemetry/series"
	"sdem/internal/telemetry/slo"
)

// maxWindowColumns bounds the per-window table width: the columns are
// the top counters by campaign total (ties broken by name), so the
// table stays readable on wide metric sets without dropping the totals
// section's completeness.
const maxWindowColumns = 4

// render writes the campaign report: header, campaign totals, merged
// sketch quantiles, the per-window table, and the SLO verdict. It is a
// pure function of its inputs — byte-identical output for equal series
// and verdict — which is what makes the report CI-diffable.
func render(w io.Writer, s *series.Series, v *slo.Verdict) error {
	bw := bufio.NewWriter(w)

	fmt.Fprintf(bw, "sdemwatch report: clock=%s interval=%s origin=%s windows=%d\n",
		s.Clock, ftoa(s.Interval), ftoa(s.Origin), len(s.Windows))

	counters, floats := campaignTotals(s)
	if len(counters)+len(floats) > 0 {
		fmt.Fprintln(bw, "\ntotals")
		tw := tabwriter.NewWriter(bw, 2, 4, 2, ' ', 0)
		for _, kv := range counters {
			fmt.Fprintf(tw, "  %s\t%d\n", kv.name, kv.count)
		}
		for _, kv := range floats {
			fmt.Fprintf(tw, "  %s\t%s\n", kv.name, ftoa(kv.value))
		}
		tw.Flush()
	}

	if sketches := mergedSketches(s); len(sketches) > 0 {
		fmt.Fprintln(bw, "\nsketches (merged over all windows)")
		tw := tabwriter.NewWriter(bw, 2, 4, 2, ' ', 0)
		for _, ms := range sketches {
			fmt.Fprintf(tw, "  %s\tcount=%d\tp50=%s\tp99=%s\tp999=%s\tmax=%s\n",
				ms.name, ms.sk.Count(),
				ftoa(ms.sk.Quantile(0.5)), ftoa(ms.sk.Quantile(0.99)),
				ftoa(ms.sk.Quantile(0.999)), ftoa(ms.sk.Max()))
		}
		tw.Flush()
	}

	renderWindows(bw, s, counters)
	renderVerdict(bw, v)
	return bw.Flush()
}

// renderWindows prints the per-window table: window index and start,
// the top counters (by campaign total), and each sketch's window p99.
func renderWindows(bw *bufio.Writer, s *series.Series, counters []counterTotal) {
	if len(s.Windows) == 0 {
		return
	}
	cols := make([]string, 0, maxWindowColumns)
	for _, kv := range counters {
		if len(cols) == maxWindowColumns {
			break
		}
		cols = append(cols, kv.name)
	}
	var sketchCols []string
	seen := map[string]bool{}
	for _, w := range s.Windows {
		for k := range w.Sketches {
			if b := bare(k); !seen[b] {
				seen[b] = true
				sketchCols = append(sketchCols, b)
			}
		}
	}
	sort.Strings(sketchCols)

	fmt.Fprintln(bw, "\nper-window")
	tw := tabwriter.NewWriter(bw, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "  w\tstart")
	for _, c := range cols {
		fmt.Fprintf(tw, "\t%s", shortName(c))
	}
	for _, c := range sketchCols {
		fmt.Fprintf(tw, "\t%s.p99", shortName(c))
	}
	fmt.Fprintln(tw)
	for i := range s.Windows {
		w := &s.Windows[i]
		fmt.Fprintf(tw, "  %d\t%s", w.Index, ftoa(s.WindowStart(w.Index)))
		for _, c := range cols {
			fmt.Fprintf(tw, "\t%d", sumCounter(w, c))
		}
		for _, c := range sketchCols {
			if sk := windowSketch(w, c); sk != nil && sk.Count() > 0 {
				fmt.Fprintf(tw, "\t%s", ftoa(sk.Quantile(0.99)))
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// renderVerdict prints the per-objective outcomes and breach timeline.
func renderVerdict(bw *bufio.Writer, v *slo.Verdict) {
	if v == nil {
		return
	}
	status := "PASS"
	if !v.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(bw, "\nslo verdict: %s\n", status)
	tw := tabwriter.NewWriter(bw, 2, 4, 2, ' ', 0)
	for _, r := range v.Results {
		st := "PASS"
		if !r.Pass {
			st = "FAIL"
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\tmax=%s\tburning=%d/%d\tconsumed=%s\tbudget=%s\tworst=%s\tlast=%s\n",
			st, r.Name, string(r.Kind), ftoa(r.Max), r.Burning, r.Windows,
			ftoa(r.Consumed), ftoa(r.Budget), ftoa(r.Worst), ftoa(r.Last))
	}
	tw.Flush()
	for _, r := range v.Results {
		if len(r.Timeline) == 0 {
			continue
		}
		runs := make([]string, len(r.Timeline))
		for i, run := range r.Timeline {
			runs[i] = fmt.Sprintf("[%d-%d]", run.From, run.To)
		}
		fmt.Fprintf(bw, "  breach %s: windows %s\n", r.Name, strings.Join(runs, " "))
	}
}

type counterTotal struct {
	name  string
	count int64
}

type floatTotal struct {
	name  string
	value float64
}

// campaignTotals sums counters and float deltas over the whole series,
// grouped by bare metric name (label variants of one metric merge), in
// descending-total then name order for counters and name order for
// floats.
func campaignTotals(s *series.Series) ([]counterTotal, []floatTotal) {
	cm := map[string]int64{}
	fm := map[string]float64{}
	for i := range s.Windows {
		w := &s.Windows[i]
		for _, k := range series.SortedKeys(w.Counters) {
			cm[bare(k)] += w.Counters[k]
		}
		for _, k := range series.SortedKeys(w.Floats) {
			fm[bare(k)] += w.Floats[k]
		}
	}
	counters := make([]counterTotal, 0, len(cm))
	for name, c := range cm {
		counters = append(counters, counterTotal{name, c})
	}
	sort.Slice(counters, func(i, j int) bool {
		if counters[i].count != counters[j].count {
			return counters[i].count > counters[j].count
		}
		return counters[i].name < counters[j].name
	})
	floats := make([]floatTotal, 0, len(fm))
	for name, v := range fm {
		floats = append(floats, floatTotal{name, v})
	}
	sort.Slice(floats, func(i, j int) bool { return floats[i].name < floats[j].name })
	return counters, floats
}

type mergedSketch struct {
	name string
	sk   *series.Sketch
}

// mergedSketches merges every sketch across the series by bare name, in
// name order. Label variants of one metric share an alpha (they come
// from one collector), so the merges cannot fail; a corrupt hand-edited
// dump surfaces as a skipped merge rather than a crash.
func mergedSketches(s *series.Series) []mergedSketch {
	m := map[string]*series.Sketch{}
	for i := range s.Windows {
		w := &s.Windows[i]
		for _, k := range series.SortedKeys(w.Sketches) {
			b := bare(k)
			if cur, ok := m[b]; ok {
				if err := cur.Merge(w.Sketches[k]); err == nil {
					continue
				}
				continue
			}
			m[b] = w.Sketches[k].Clone()
		}
	}
	out := make([]mergedSketch, 0, len(m))
	for name, sk := range m {
		out = append(out, mergedSketch{name, sk})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sumCounter sums a window's counter variants of one bare metric name.
func sumCounter(w *series.Window, name string) int64 {
	var total int64
	for k, v := range w.Counters {
		if bare(k) == name {
			total += v
		}
	}
	return total
}

// windowSketch merges a window's sketch variants of one bare name.
func windowSketch(w *series.Window, name string) *series.Sketch {
	var merged *series.Sketch
	for _, k := range series.SortedKeys(w.Sketches) {
		if bare(k) != name {
			continue
		}
		if merged == nil {
			merged = w.Sketches[k].Clone()
			continue
		}
		_ = merged.Merge(w.Sketches[k])
	}
	return merged
}

// bare strips the "{labels}" suffix off a window key.
func bare(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// shortName compresses a dotted metric name to its last two segments so
// the per-window table header stays narrow ("sdem.sim.misses" →
// "sim.misses").
func shortName(name string) string {
	parts := strings.Split(name, ".")
	if len(parts) <= 2 {
		return name
	}
	return strings.Join(parts[len(parts)-2:], ".")
}

// ftoa formats a float with round-trip precision, matching the series
// encoder's number rendering.
func ftoa(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
