// Command experiments regenerates the tables and figures of the paper's
// evaluation (§8) at full scale and prints the series in text form.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig6a -seeds 10 -tasks 60
//	experiments -run table3
//	experiments -run ablation
//
// Runs: fig6a, fig6b, fig7a, fig7b, table3, ablation,
// ablation-procrastinate, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sdem/internal/experiments"
	"sdem/internal/parallel"
	"sdem/internal/stats"
	"sdem/internal/telemetry"
)

// The full-scale defaults: experiments_full.txt is `-run all` at these.
const (
	defaultSeeds = 10
	defaultTasks = 60
	defaultCores = 8
	defaultSeed  = 1
)

// allRuns is what -run all expands to, in output order.
var allRuns = []string{"fig6a", "fig6b", "fig7a", "fig7b", "table3", "ablation", "ablation-procrastinate", "ablation-switch", "ablation-discrete", "fig6ext", "faults"}

func main() {
	var (
		run     = flag.String("run", "all", "experiment: fig6a|fig6b|fig6ext|fig7a|fig7b|table3|ablation|ablation-procrastinate|ablation-switch|ablation-discrete|faults|all")
		seeds   = flag.Int("seeds", defaultSeeds, "random cases per data point (§8.2 uses 10)")
		tasks   = flag.Int("tasks", defaultTasks, "task instances per run")
		cores   = flag.Int("cores", defaultCores, "platform cores")
		workers = flag.Int("workers", parallel.DefaultWorkers(), "sweep worker pool size (1 = sequential; output is identical at any width)")
		seed    = flag.Int64("seed", defaultSeed, "campaign base seed; per-point workload seeds derive from it via stats.DeriveSeed")
		csv     = flag.String("csv", "", "also append figure series as CSV to this file")
		tcli    telemetry.CLI
	)
	tcli.Register(flag.CommandLine)
	flag.Parse()
	if err := tcli.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	cfg := experiments.Config{Seeds: *seeds, Tasks: *tasks, Cores: *cores, Workers: *workers, Seed: *seed, Telemetry: tcli.Recorder()}
	names := strings.Split(*run, ",")
	if *run == "all" {
		names = allRuns
	}
	for _, name := range names {
		if err := dispatch(os.Stdout, cfg, strings.TrimSpace(name), *csv); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if err := tcli.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// dispatch runs one experiment and writes its text rendering to w.
func dispatch(w io.Writer, cfg experiments.Config, name, csvPath string) error {
	writeCSV := func(series []experiments.Series) error {
		if csvPath == "" {
			return nil
		}
		f, err := os.OpenFile(csvPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = f.WriteString(experiments.RenderCSV(series))
		return err
	}
	switch name {
	case "fig6a":
		s, err := cfg.Fig6a()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "# Fig 6a — memory static energy saving vs MBKP, benchmark tasks")
		fmt.Fprint(w, experiments.RenderSeries(s))
		if err := writeCSV(s); err != nil {
			return err
		}
		fmt.Fprintf(w, "FIG6A AVERAGE memory improvement of SDEM-ON over MBKPS: %s (paper: 10.02%%)\n\n",
			stats.Percent(experiments.AvgImprovement(s)))
	case "fig6b":
		s, err := cfg.Fig6b()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "# Fig 6b — system-wide energy saving vs MBKP, benchmark tasks")
		fmt.Fprint(w, experiments.RenderSeries(s))
		if err := writeCSV(s); err != nil {
			return err
		}
		fmt.Fprintf(w, "FIG6B AVERAGE system improvement of SDEM-ON over MBKPS: %s (paper: 23.45%%)\n\n",
			stats.Percent(experiments.AvgImprovement(s)))
	case "fig6ext":
		s, err := cfg.Fig6Extended()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "# Fig 6 extension — system-wide saving, FIR and IIR benchmark kernels (beyond the paper)")
		fmt.Fprint(w, experiments.RenderSeries(s))
		if err := writeCSV(s); err != nil {
			return err
		}
	case "fig7a":
		s, err := cfg.Fig7a()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "# Fig 7a — system saving improvement across α_m × utilization, synthetic tasks")
		fmt.Fprint(w, experiments.RenderSeries(s))
		if err := writeCSV(s); err != nil {
			return err
		}
		fmt.Fprintf(w, "FIG7A AVERAGE improvement of SDEM-ON over MBKPS: %s (paper: 9.74%%)\n\n",
			stats.Percent(experiments.AvgImprovement(s)))
	case "fig7b":
		s, err := cfg.Fig7b()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "# Fig 7b — system saving improvement across ξ_m × utilization, synthetic tasks")
		fmt.Fprint(w, experiments.RenderSeries(s))
		if err := writeCSV(s); err != nil {
			return err
		}
		fmt.Fprintf(w, "FIG7B AVERAGE improvement of SDEM-ON over MBKPS: %s (paper: 10.52%%)\n\n",
			stats.Percent(experiments.AvgImprovement(s)))
	case "table3":
		rows, err := cfg.Table3()
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderTable3(rows))
		fmt.Fprintln(w)
	case "ablation":
		pts, err := cfg.Ablation()
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderAblation(pts))
		fmt.Fprintln(w)
	case "ablation-switch":
		pts, err := cfg.AblationSwitchOverhead()
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderSwitchAblation(pts))
		fmt.Fprintln(w)
	case "ablation-discrete":
		pts, err := cfg.AblationDiscrete()
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderDiscreteAblation(pts))
		fmt.Fprintln(w)
	case "faults":
		res, err := experiments.FaultSweep(experiments.FaultConfig{
			N:         cfg.Tasks / 4,
			Seed:      cfg.Seed,
			Workers:   cfg.Workers,
			Telemetry: cfg.Telemetry,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderFaultSweep(res))
		fmt.Fprintln(w)
	case "ablation-procrastinate":
		pts, err := cfg.AblationProcrastination()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== ablation: procrastination (SDEM-ON with vs without latest-start postponement) ==")
		fmt.Fprintf(w, "%-12s %-18s %-18s %-18s\n", "x (s)", "with (vs MBKP)", "without (vs MBKP)", "gain of postponing")
		for _, p := range pts {
			fmt.Fprintf(w, "%-12.4g %-18s %-18s %-18s\n", p.X,
				stats.Percent(p.SDEMON.Mean), stats.Percent(p.MBKPS.Mean), stats.Percent(p.Improvement.Mean))
		}
		fmt.Fprintln(w)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
