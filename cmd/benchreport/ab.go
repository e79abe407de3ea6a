package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"

	"sdem/internal/stats"
)

// abRow is one benchmark's A/B comparison: the per-pair change/base
// ns/op ratios and each side's median ns/op.
type abRow struct {
	id               string
	pairs            int
	baseNs, changeNs float64
	ratio, q1, q3    float64
}

// readRuns parses one side's concatenated `go test -bench` output.
func readRuns(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	return parse(bufio.NewScanner(f))
}

// runsByID groups a side's ns/op by package/name, in run order (parse
// sorts stably, so repeated runs of one benchmark keep their order).
func runsByID(rep Report) (map[string][]float64, []string) {
	runs := map[string][]float64{}
	var ids []string
	for _, e := range rep.Benchmarks {
		id := e.Package + "/" + e.Name
		if _, ok := runs[id]; !ok {
			ids = append(ids, id)
		}
		runs[id] = append(runs[id], e.NsPerOp)
	}
	return runs, ids
}

// median returns the nearest-rank median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Quantile(s, 0.5)
}

// compareAB pairs the i-th run of each benchmark on the base side with
// its i-th run on the change side — the runs alternate, so a pair shares
// the host's state — and summarizes the change/base ns/op ratios by
// their median and quartiles. Benchmarks on one side only are listed
// apart; extra runs on one side are left unpaired.
func compareAB(base, change Report) (rows []abRow, only []string) {
	b, ids := runsByID(base)
	c, cids := runsByID(change)
	for _, id := range ids {
		cr, ok := c[id]
		if !ok {
			only = append(only, "base only:   "+id)
			continue
		}
		br := b[id]
		n := min(len(br), len(cr))
		ratios := make([]float64, n)
		for i := range ratios {
			ratios[i] = cr[i] / br[i]
		}
		sort.Float64s(ratios)
		rows = append(rows, abRow{
			id: id, pairs: n,
			baseNs: median(br[:n]), changeNs: median(cr[:n]),
			ratio: stats.Quantile(ratios, 0.5), q1: stats.Quantile(ratios, 0.25), q3: stats.Quantile(ratios, 0.75),
		})
	}
	for _, id := range cids {
		if _, ok := b[id]; !ok {
			only = append(only, "change only: "+id)
		}
	}
	return rows, only
}

// printAB writes the A/B table: one row per benchmark with the median
// ns/op of each side and the median change/base ratio with its
// quartiles (below 1 is faster).
func printAB(w io.Writer, base, change Report, rows []abRow, only []string) {
	fmt.Fprintf(w, "base cpu:   %s\nchange cpu: %s\n", base.CPU, change.CPU)
	fmt.Fprintf(w, "%-52s %5s %14s %14s %7s  %s\n", "benchmark", "pairs", "base ns/op", "change ns/op", "ratio", "[q1, q3]")
	for _, r := range rows {
		fmt.Fprintf(w, "%-52s %5d %14.0f %14.0f %7.3f  [%.3f, %.3f]\n", r.id, r.pairs, r.baseNs, r.changeNs, r.ratio, r.q1, r.q3)
	}
	for _, s := range only {
		fmt.Fprintln(w, s)
	}
}

// runAB reads both sides' outputs and prints their comparison.
func runAB(w io.Writer, basePath, changePath string) error {
	base, err := readRuns(basePath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	if len(base.Benchmarks) == 0 || len(change.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines in %s or %s", basePath, changePath)
	}
	rows, only := compareAB(base, change)
	printAB(w, base, change, rows, only)
	return nil
}
