// Command sdembench is the repository's end-to-end benchmark. It drives
// the real sdemd handler chain (serve.New(cfg).Handler()) in-process
// through httptest, with no sockets, and the streaming SDEM-ON engine
// (online.ScheduleStream) directly, one workload per process:
//
//	sdembench -workload hot-simulate -seed 1 -seconds 20 -trace 0
//	sdembench compare A.jsonl B.jsonl
//
// A run prints every metric by name with its unit, then, as the last
// line of standard output, one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"p50_ms":{"value":…,"unit":"ms"},…}}
//
// -trace 0 reports the end-to-end metrics, their times scaled to the
// speed of a reference kernel (host.go) so that the host's own speed
// swings cancel; -trace 1 turns on wall-clock request tracing and
// reports the per-layer ledger instead. Every output
// is checked (see check.go); a failed check prints "correct":false and
// exits 1. bench/README.md documents the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"energy_per_task_j", "J"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, in print order. Every
// workload prints all of them; a layer the workload never crosses reads 0.
// Stage costs are shares of bench.op_mean_ms, so they sum with
// serve.untracked_share to 1 on a serve workload.
var perLayer = []metricDef{
	{"bench.op_mean_ms", "ms"},
	{"bench.gen_share", "fraction"},
	{"bench.idle_frac", "fraction"},
	{"bench.host_slowdown", "ratio"},
	{"serve.request_self_share", "fraction"},
	{"serve.admission_share", "fraction"},
	{"serve.decode_share", "fraction"},
	{"serve.cache_self_share", "fraction"},
	{"serve.solve_share", "fraction"},
	{"serve.encode_share", "fraction"},
	{"serve.write_share", "fraction"},
	{"serve.untracked_share", "fraction"},
	{"serve.solve_p99_share", "fraction"},
	{"serve.resp_kb", "KB"},
	{"serve.cache_hit_frac", "fraction"},
	{"serve.shed_frac", "fraction"},
	{"serve.trace_overhead_frac", "fraction"},
	{"serve.solver_share", "fraction"},
	{"encode.canonical_key_share", "fraction"},
	{"commonrelease.solve_share", "fraction"},
	{"agreeable.solve_share", "fraction"},
	{"agreeable.solve_p99_share", "fraction"},
	{"online.schedule_share", "fraction"},
	{"schedule.audit_share", "fraction"},
	{"online.skipped_solve_frac", "fraction"},
	{"online.plan_reuse_frac", "fraction"},
	{"sim.segments_per_task", "count"},
	{"sim.sleeps_per_task", "count"},
	{"sim.max_active", "count"},
	{"sim.explained_miss_frac", "fraction"},
	{"workload.next_share", "fraction"},
	{"faults.sample_share", "fraction"},
	{"online.engine_share", "fraction"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"runtime.gc_pause_max_ms", "ms"},
	{"runtime.sched_latency_mean_us", "us"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are a run's command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// workloadRun runs one workload and returns its outcome. values holds
// every metric the run measured, by name; run picks the reported set.
type workloadRun func(o options) (attempted, failed int64, values map[string]float64, err error)

// workloads maps each workload name to its runner.
var workloads = map[string]workloadRun{
	"hot-simulate":  serveWorkload(hotSimulate),
	"cold-simulate": serveWorkload(coldSimulate),
	"offline-solve": serveWorkload(offlineSolve),
	"stream-soak":   streamWorkload(streamSoak),
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain("BENCHMARK.json", os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain parses a run's flags, runs the workload and prints its
// metrics; it returns the process exit code.
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sdembench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds, trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.IntVar(&seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 traces every request and reports the per-layer ledger, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[o.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "sdembench: unknown -workload %q (want one of %s)\n", o.workload, workloadNames())
		return 2
	case seconds < 1:
		fmt.Fprintf(stderr, "sdembench: -seconds %d must be at least 1\n", seconds)
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "sdembench: -trace %d must be 0 or 1\n", trace)
		return 2
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	attempted, failed, values, err := run(o)
	res := result{Correct: err == nil, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if err != nil {
		fmt.Fprintln(stderr, "sdembench:", err)
	}
	if values == nil {
		values = map[string]float64{}
	}
	values["max_rss_mb"] = maxRSSMB()
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := values[d.name]
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", d.name, v, d.unit)
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(stderr, "sdembench: encoding the result:", merr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
