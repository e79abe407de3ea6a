package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// record is one line of a run-set file: a run's identity and the JSON
// object it printed last (bench/calibrate.sh writes these).
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet is a run-set file read by workload.
type runSet struct {
	// values holds each metric's value in every run.
	values map[string]map[string][]float64
	// failed and attempted total the runs' operation counts.
	failed, attempted map[string]int64
}

// failFrac is the workload's failed operations over attempted ones,
// pooled over its runs.
func (s runSet) failFrac(w string) float64 {
	return float64(s.failed[w]) / float64(s.attempted[w])
}

// readRunSet reads a JSONL run-set file.
func readRunSet(path string) (runSet, error) {
	s := runSet{values: map[string]map[string][]float64{}, failed: map[string]int64{}, attempted: map[string]int64{}}
	f, err := os.Open(path)
	if err != nil {
		return s, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return s, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Result.Correct {
			return s, fmt.Errorf("%s:%d: run of %s seed %d failed its output checks", path, line, r.Workload, r.Seed)
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
		}
		s.failed[r.Workload] += r.Result.Failed
		s.attempted[r.Workload] += r.Result.Attempted
	}
	if err := sc.Err(); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// quartiles returns the first quartile, median and third quartile of xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	sk := newSketch()
	for _, x := range xs {
		sk.Observe(x)
	}
	return sk.Quantile(0.25), sk.Quantile(0.5), sk.Quantile(0.75)
}

// verdict judges B against A for one metric: "unresolved" when either
// side's quartile spread exceeds the bound, else whether B's median is
// worse than A's by more than the bound. worse is B's relative change in
// the metric's bad direction.
func verdict(a, b []float64, better string, bound float64) (worse float64, v string) {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	worse = (bm - am) / am
	if better == "higher" {
		worse = -worse
	}
	switch spread := math.Max((aq3-aq1)/am, (bq3-bq1)/bm); {
	case spread > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "outside bound"
	default:
		return worse, "within bound"
	}
}

// compareMain implements `sdembench compare A B`: for every workload and
// end-to-end metric of the benchmark definition at specPath it prints
// each run set's median and quartiles and a verdict against the metric's
// bound, then the pooled share of failed operations, which may not grow
// at all. It exits 1 when any metric is outside its bound.
func compareMain(specPath string, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: sdembench compare A.jsonl B.jsonl")
		return 2
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "sdembench compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "sdembench compare: %s: %v\n", specPath, err)
		return 2
	}
	a, err := readRunSet(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "sdembench compare:", err)
		return 2
	}
	b, err := readRunSet(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "sdembench compare:", err)
		return 2
	}

	names := make([]string, 0, len(a.values))
	for w := range a.values {
		names = append(names, w)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-14s %-18s %-40s %-40s %8s %7s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound", "verdict")
	outside := false
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			av, bv := a.values[w][m.Name], b.values[w][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			worse, v := verdict(av, bv, m.Better, m.Bound)
			outside = outside || v == "outside bound"
			fmt.Fprintf(stdout, "%-14s %-18s %-40s %-40s %+7.2f%% %7s  %s\n",
				w, m.Name, spread(av), spread(bv), 100*worse, fmt.Sprintf("%.3g%%", 100*m.Bound), v)
		}
		if b.attempted[w] == 0 {
			continue
		}
		af, bf := a.failFrac(w), b.failFrac(w)
		v := "within bound"
		if bf > af {
			v = "outside bound"
			outside = true
		}
		fmt.Fprintf(stdout, "%-14s %-18s %-40s %-40s %+7.2g%% %7s  %s\n", w, "fail_frac",
			fmt.Sprintf("%.3g (%d/%d)", af, a.failed[w], a.attempted[w]),
			fmt.Sprintf("%.3g (%d/%d)", bf, b.failed[w], b.attempted[w]),
			100*(bf-af), "0", v)
	}
	if outside {
		return 1
	}
	return 0
}

// spread formats a run set's median and quartiles with its run count.
func spread(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", med, q1, q3, len(xs))
}
