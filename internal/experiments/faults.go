package experiments

import (
	"context"
	"fmt"
	"strings"

	"sdem/internal/core"
	"sdem/internal/encode"
	"sdem/internal/faults"
	"sdem/internal/parallel"
	"sdem/internal/power"
	"sdem/internal/resilient"
	"sdem/internal/stats"
	"sdem/internal/telemetry"
	"sdem/internal/workload"
)

// FaultConfig tunes a fault-injection sweep campaign. The zero value
// takes the quick-sweep defaults.
type FaultConfig struct {
	// N is the number of benchmark task instances (default 10).
	N int
	// Trials is the number of fault seeds per intensity (default 5).
	Trials int
	// Intensities are the generator intensities swept (default 0.25, 0.5).
	Intensities []float64
	// Seed is the workload seed; per-trial fault-plan seeds derive from
	// it and the (intensity, trial) coordinates via stats.DeriveSeed
	// (default 3).
	Seed int64
	// WakeDelayMax bounds the extra wake latency as a multiple of ξ_m
	// (default 0.01: a full-ξ_m stall on a sub-millisecond procrastinated
	// execution is unrecoverable by physics, not by policy, and would
	// measure the platform rather than the recovery chain).
	WakeDelayMax float64
	// Workers bounds the trial worker pool (default runtime.GOMAXPROCS;
	// 1 forces sequential execution). Any value yields identical output.
	Workers int
	// Telemetry, when non-nil, records the sweep's solver, simulator and
	// recovery metrics. Each (intensity, trial) replay pair runs against
	// its own child Recorder, merged back in index order.
	Telemetry *telemetry.Recorder
}

func (c FaultConfig) withDefaults() FaultConfig {
	if c.N == 0 {
		c.N = 10
	}
	if c.Trials == 0 {
		c.Trials = 5
	}
	if len(c.Intensities) == 0 {
		c.Intensities = []float64{0.25, 0.5}
	}
	if c.Seed == 0 {
		c.Seed = 3
	}
	if c.WakeDelayMax <= 0 {
		c.WakeDelayMax = 0.01
	}
	if c.Workers <= 0 {
		c.Workers = parallel.DefaultWorkers()
	}
	return c
}

// FaultSweep replays the offline-optimal schedule of an agreeable
// benchmark workload through seeded fault plans of increasing intensity,
// once with the full recovery chain and once with recovery disabled, and
// aggregates miss counts, recovery actions and the energy cost of
// degradation. Deterministic in (cfg, seeds): the same call always yields
// the same table.
func FaultSweep(cfg FaultConfig) (encode.FaultSweep, error) {
	cfg = cfg.withDefaults()
	sys := power.DefaultSystem()
	tasks, err := workload.Benchmark(workload.BenchmarkConfig{N: cfg.N, Kernel: workload.KernelFFT, U: 4}, cfg.Seed)
	if err != nil {
		return encode.FaultSweep{}, err
	}
	sol, err := core.SolveCtx(nil, tasks, sys, cfg.Telemetry)
	if err != nil {
		return encode.FaultSweep{}, err
	}
	out := encode.FaultSweep{
		Workload:    "fft",
		N:           cfg.N,
		Seed:        cfg.Seed,
		CleanEnergy: sol.Energy,
	}
	// Every (intensity, trial) replay pair is independent: fan them out on
	// the worker pool and reduce per-intensity rows in index order. Plan
	// seeds derive from the trial's coordinates, so any worker count —
	// including Workers == 1, the historical sequential loop — yields the
	// same table.
	type trialOut struct {
		faults, recovered, averted   int
		boosts, replans, races, bare int
		overhead                     float64
	}
	nTrials := len(cfg.Intensities) * cfg.Trials
	children := make([]*telemetry.Recorder, nTrials)
	var popts []parallel.Option
	var stop func()
	if cfg.Telemetry != nil {
		for i := range children {
			children[i] = cfg.Telemetry.Child(i)
		}
		pp := cfg.Telemetry.Prof.Pool("faultsweep")
		popts = append(popts, parallel.WithHooks(parallel.Hooks{PoolStart: pp.PoolStart, TaskStart: pp.TaskStart}))
		stop = cfg.Telemetry.Prof.Start("faultsweep")
	}
	trials, err := parallel.Map(context.Background(), cfg.Workers, nTrials,
		func(_ context.Context, i int) (trialOut, error) {
			in := cfg.Intensities[i/cfg.Trials]
			trial := i % cfg.Trials
			gen := faults.Config{WakeDelayMax: cfg.WakeDelayMax, Intensity: in}
			planSeed := stats.DeriveSeed(cfg.Seed, domainFaultSweep, stats.FloatDim(in), uint64(trial))
			plan := faults.Generate(gen, tasks, sys, planSeed)
			t := trialOut{faults: len(plan.Faults)}

			pol := resilient.DefaultPolicy()
			pol.Telemetry = children[i]
			rec, err := resilient.Execute(sol.Schedule, tasks, sys, plan, pol)
			if err != nil {
				return trialOut{}, fmt.Errorf("intensity %g trial %d: %w", in, trial, err)
			}
			t.recovered = len(rec.FaultMisses)
			t.averted = len(rec.Averted)
			t.boosts = rec.Recoveries.Count(resilient.ActionBoost)
			t.replans = rec.Recoveries.Count(resilient.ActionReplan)
			t.races = rec.Recoveries.Count(resilient.ActionRace)
			t.overhead = rec.Energy/sol.Energy - 1

			bare, err := resilient.Execute(sol.Schedule, tasks, sys, plan, resilient.NoRecovery())
			if err != nil {
				return trialOut{}, fmt.Errorf("intensity %g trial %d (bare): %w", in, trial, err)
			}
			t.bare = len(bare.FaultMisses)
			return t, nil
		}, popts...)
	if stop != nil {
		stop()
	}
	if err != nil {
		return encode.FaultSweep{}, err
	}
	if cfg.Telemetry != nil {
		for _, ch := range children {
			cfg.Telemetry.Merge(ch)
		}
	}
	for ii, in := range cfg.Intensities {
		row := encode.FaultSweepRow{Intensity: in, Trials: cfg.Trials}
		var overheads []float64
		for _, t := range trials[ii*cfg.Trials : (ii+1)*cfg.Trials] {
			row.Faults += t.faults
			row.RecoveredMisses += t.recovered
			row.Averted += t.averted
			row.Boosts += t.boosts
			row.Replans += t.replans
			row.Races += t.races
			row.BareMisses += t.bare
			overheads = append(overheads, t.overhead)
		}
		row.EnergyOverhead = stats.Mean(overheads)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// RenderFaultSweep formats the sweep as an aligned text table.
func RenderFaultSweep(s encode.FaultSweep) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== fault sweep: %s workload, n=%d, seed %d, clean energy %.4f J ==\n",
		s.Workload, s.N, s.Seed, s.CleanEnergy)
	fmt.Fprintf(&b, "%-10s %-7s %-7s %-12s %-12s %-8s %-7s %-8s %-6s %s\n",
		"intensity", "trials", "faults", "misses/bare", "misses/rec", "averted", "boosts", "replans", "races", "energy overhead")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-10.3g %-7d %-7d %-12d %-12d %-8d %-7d %-8d %-6d %s\n",
			r.Intensity, r.Trials, r.Faults, r.BareMisses, r.RecoveredMisses,
			r.Averted, r.Boosts, r.Replans, r.Races, stats.Percent(r.EnergyOverhead))
	}
	return b.String()
}
