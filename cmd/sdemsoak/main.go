// Command sdemsoak soaks the incremental streaming SDEM-ON engine: it
// drives days of virtual time from a sporadic arrival source through
// online.ScheduleStream in O(active-set) memory, optionally under seeded
// fault injection (workload overruns, late releases), and exposes live
// OpenMetrics while the run is in flight.
//
// Usage:
//
//	sdemsoak -virtual 86400 -cores 8 -fault-intensity 0.5
//	sdemsoak -jobs 100000 -listen 127.0.0.1:9090 &
//	curl -s localhost:9090/metrics | grep stream_virtual
//	sdemsoak -virtual 7200 -window 300 -series-out soak.series.jsonl \
//	    -slo-miss-rate 0.05 -slo-p99 2 -slo-drift 0.5
//
// The summary is printed as JSON on stdout. The process exits non-zero
// when any miss is unexplained — a miss on a job that was neither
// perturbed by an injected fault nor squeezed behind a full machine is
// an engine bug, and the soak exists to catch exactly that.
//
// With -window the run additionally collects a windowed time series on
// the virtual clock (see internal/telemetry/series) and evaluates the
// soak SLO set over it (internal/telemetry/slo): the unexplained-miss
// objective is always on; -slo-miss-rate, -slo-p99 and -slo-drift arm
// the optional objectives. A failed verdict exits non-zero with an "SLO
// breach" error, and the verdict rides in the summary's "slo" field.
// Series dumps and verdicts are deterministic: same seeds, same bytes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdem/internal/faults"
	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/telemetry"
	"sdem/internal/telemetry/export"
	"sdem/internal/telemetry/series"
	"sdem/internal/telemetry/slo"
	"sdem/internal/workload"
)

// soakReport is the JSON summary printed after the run.
type soakReport struct {
	Admitted       int64   `json:"admitted"`
	Completed      int64   `json:"completed"`
	Misses         int64   `json:"misses"`
	Explained      int64   `json:"explained_misses"`
	Unexplained    int64   `json:"unexplained_misses"`
	MaxActive      int     `json:"max_active"`
	Energy         float64 `json:"energy_j"`
	VirtualSeconds float64 `json:"virtual_s"`
	WallSeconds    float64 `json:"wall_s"`
	MeanResponse   float64 `json:"mean_response_s"`
	MaxResponse    float64 `json:"max_response_s"`

	// Decision provenance: how the engine reached this energy — planner
	// invocations vs the two short-circuits that skip work entirely.
	Plans         int64 `json:"plans"`
	SkippedSolves int64 `json:"skipped_solves"`
	PlanReuse     int64 `json:"plan_reuse"`

	// Windows and SLO are present only when -window armed the windowed
	// series: the completed-window count and the SLO verdict over them.
	Windows int          `json:"windows,omitempty"`
	SLO     *slo.Verdict `json:"slo,omitempty"`
}

type options struct {
	virtual   float64
	jobs      int64
	cores     int
	seed      int64
	arrival   time.Duration
	intensity float64
	faultSeed int64
	listen    string
	quiet     bool

	window      float64
	seriesOut   string
	sloMissRate float64
	sloP99      float64
	sloDrift    float64
}

func main() {
	var o options
	flag.Float64Var(&o.virtual, "virtual", 3600, "virtual seconds of arrivals to admit (0 = unbounded, requires -jobs)")
	flag.Int64Var(&o.jobs, "jobs", 0, "stop admitting after this many arrivals (0 = unbounded, requires -virtual)")
	flag.IntVar(&o.cores, "cores", 8, "platform core count")
	flag.Int64Var(&o.seed, "seed", 1, "arrival-source seed (same seed, same stream)")
	flag.DurationVar(&o.arrival, "arrival", 80*time.Millisecond, "max inter-arrival gap; releases are spaced uniformly in [0, arrival]")
	flag.Float64Var(&o.intensity, "fault-intensity", 0, "fault injection intensity in [0, 1] (0 disables)")
	flag.Int64Var(&o.faultSeed, "fault-seed", 1, "fault draw seed (same seed, same perturbations)")
	flag.StringVar(&o.listen, "listen", "", "serve live OpenMetrics on this address while soaking (empty = off)")
	flag.BoolVar(&o.quiet, "q", false, "suppress the JSON summary; only the exit code reports")
	flag.Float64Var(&o.window, "window", 0, "virtual seconds per telemetry window (0 = windowed series off)")
	flag.StringVar(&o.seriesOut, "series-out", "", "write the windowed series as JSONL to this file (requires -window)")
	flag.Float64Var(&o.sloMissRate, "slo-miss-rate", 0, "SLO: max per-window miss rate, all misses incl. explained (0 = off)")
	flag.Float64Var(&o.sloP99, "slo-p99", 0, "SLO: max per-window p99 response seconds (0 = off)")
	flag.Float64Var(&o.sloDrift, "slo-drift", 0, "SLO: max relative energy-per-job drift vs the trailing baseline (0 = off)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "sdemsoak:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.virtual <= 0 && o.jobs <= 0 {
		return fmt.Errorf("unbounded soak: set -virtual or -jobs")
	}
	if o.cores <= 0 {
		return fmt.Errorf("-cores must be positive")
	}
	if o.seriesOut != "" && o.window <= 0 {
		return fmt.Errorf("-series-out requires -window")
	}
	if o.window <= 0 && (o.sloMissRate > 0 || o.sloP99 > 0 || o.sloDrift > 0) {
		return fmt.Errorf("-slo-* objectives require -window")
	}
	sys := power.DefaultSystem()
	sys.Cores = o.cores

	src, err := workload.SporadicStream(workload.SyntheticConfig{
		MaxInterArrival: o.arrival.Seconds(),
	}, o.seed, 0)
	if err != nil {
		return err
	}

	tel := telemetry.New()
	if o.listen != "" {
		l, err := net.Listen("tcp", o.listen)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			if err := export.WriteOpenMetrics(w, tel.Snapshot()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		srv := &http.Server{Handler: mux}
		go srv.Serve(l)
		defer srv.Close()
		fmt.Fprintln(os.Stderr, "sdemsoak: metrics on", l.Addr())
	}

	opts := online.StreamOptions{
		Cores:      o.cores,
		MaxVirtual: o.virtual,
		MaxJobs:    o.jobs,
		Telemetry:  tel,
	}
	var col *series.Collector
	if o.window > 0 {
		col, err = series.NewCollector(tel, series.ClockVirtual, o.window)
		if err != nil {
			return err
		}
		opts.Series = col
	}
	if o.intensity > 0 {
		opts.Faults = faults.NewStreamer(faults.Config{Intensity: o.intensity}, o.faultSeed)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.Ctx = ctx

	//lint:allow telemetrycheck: the soak report's wall_s is operator-facing throughput context, intentionally wall time
	wall := time.Now()
	sum, err := online.ScheduleStream(src, sys, opts)
	if err != nil {
		return err
	}

	var ser *series.Series
	var verdict *slo.Verdict
	if col != nil {
		ser = col.Finish(sum.End)
		if o.seriesOut != "" {
			f, err := os.Create(o.seriesOut)
			if err != nil {
				return err
			}
			if err := ser.WriteJSONL(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		verdict, err = slo.Evaluate(ser, slo.SoakSpecs(o.sloMissRate, o.sloP99, o.sloDrift))
		if err != nil {
			return err
		}
	}

	if !o.quiet {
		out := soakReport{
			Admitted:       sum.Admitted,
			Completed:      sum.Completed,
			Misses:         sum.Misses,
			Explained:      sum.ExplainedMisses,
			Unexplained:    sum.UnexplainedMisses(),
			MaxActive:      sum.MaxActive,
			Energy:         sum.Energy,
			VirtualSeconds: sum.End - sum.Start,
			//lint:allow telemetrycheck: wall_s is the report's one intentionally wall-clock (nondeterministic) field
			WallSeconds:  time.Since(wall).Seconds(),
			MeanResponse: sum.Metrics.MeanResponse,
			MaxResponse:  sum.Metrics.MaxResponse,

			Plans:         tel.CounterValue("sdem.solver.online.plans", ""),
			SkippedSolves: tel.CounterValue("sdem.solver.online.skipped_solves", ""),
			PlanReuse:     tel.CounterValue("sdem.solver.online.plan_reuse", ""),
		}
		if ser != nil {
			out.Windows = len(ser.Windows)
			out.SLO = verdict
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		//lint:allow detcheck: the report is deliberately printed with its wall-clock wall_s field
		if err := enc.Encode(out); err != nil {
			return err
		}
	}
	if n := sum.UnexplainedMisses(); n > 0 {
		return fmt.Errorf("%d unexplained misses (of %d) — engine bug", n, sum.Misses)
	}
	if verdict != nil && !verdict.Pass {
		return fmt.Errorf("SLO breach: %v", verdict.Failing())
	}
	return nil
}
