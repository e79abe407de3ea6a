// Package experiments regenerates every table and figure of the paper's
// evaluation (§8): the Fig. 6 benchmark sweeps over utilization U, the
// Fig. 7 synthetic sweeps over memory static power α_m and transition
// break-even ξ_m, the Table 3 overhead-case demonstration, and the
// race-to-idle ablation behind the title question.
//
// Each data point averages ten random cases (§8.2) and reports energy
// savings relative to MBKP, the memory-oblivious baseline:
// saving(X) = (E_MBKP − E_X)/E_MBKP.
//
// Sweeps run on the internal/parallel worker pool: grid points are
// independent per-configuration solves, every point's workload seed is
// derived from its coordinates via stats.DeriveSeed (never from
// execution order), and results are collected in index order — so any
// worker count, including the Workers == 1 sequential path, produces
// identical output.
package experiments

import (
	"context"
	"fmt"

	"sdem/internal/baseline"
	"sdem/internal/cacti"
	"sdem/internal/numeric"
	"sdem/internal/online"
	"sdem/internal/parallel"
	"sdem/internal/power"
	"sdem/internal/sim"
	"sdem/internal/stats"
	"sdem/internal/task"
	"sdem/internal/telemetry"
	"sdem/internal/workload"
)

// Table4 is the paper's parameter grid. Starred defaults: x = 400 ms,
// α_m = 4 W, ξ_m = 40 ms.
var Table4 = struct {
	X      []float64 // maximum inter-arrival times (s)
	AlphaM []float64 // memory static powers (W)
	XiM    []float64 // memory break-even times (s)
	U      []float64 // benchmark utilization divisors
}{
	X:      msGrid(100, 200, 300, 400, 500, 600, 700, 800),
	AlphaM: []float64{1, 2, 3, 4, 5, 6, 7, 8},
	XiM:    msGrid(15, 20, 25, 30, 40, 50, 60, 70),
	U:      []float64{2, 3, 4, 5, 6, 7, 8, 9},
}

func msGrid(vals ...float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = power.Milliseconds(v)
	}
	return out
}

// Seed-domain tags keep the derived RNG streams of the experiment
// families disjoint even where their numeric coordinates coincide (e.g.
// Fig. 7a and 7b share the x grid).
const (
	domainFig6 uint64 = iota + 1
	domainFig7a
	domainFig7b
	domainAblation
	domainProcrastinate
	domainSwitch
	domainDiscrete
	domainFaultSweep
)

// Config tunes an experiment campaign.
type Config struct {
	// Seeds is the number of random cases per data point (default 10,
	// §8.2).
	Seeds int
	// Tasks is the number of task instances per run (default 60).
	Tasks int
	// Cores is the platform core count (default 8, §8.1.3).
	Cores int
	// CoreBreakEven is the core transition break-even time ξ. The paper
	// gives no value; 1 ms is assumed and documented in EXPERIMENTS.md.
	CoreBreakEven float64
	// Workers bounds the sweep engine's worker pool (default
	// runtime.GOMAXPROCS; 1 forces the historical sequential path). Any
	// value yields identical output — see the package comment.
	Workers int
	// Seed is the campaign base seed; every grid point's workload seed
	// is derived from it and the point's coordinates via
	// stats.DeriveSeed (default 1).
	Seed int64
	// Telemetry, when non-nil, receives the campaign's metrics and trace
	// events. Every grid point records into its own child Recorder; the
	// children are merged back in grid-index order, so the telemetry
	// output — like the figures — is identical at any worker count.
	Telemetry *telemetry.Recorder
}

func (c Config) withDefaults() Config {
	if c.Seeds == 0 {
		c.Seeds = 10
	}
	if c.Tasks == 0 {
		c.Tasks = 60
	}
	if c.Cores == 0 {
		c.Cores = 8
	}
	if numeric.IsZero(c.CoreBreakEven, 0) {
		c.CoreBreakEven = power.Milliseconds(1)
	}
	if c.Workers <= 0 {
		c.Workers = parallel.DefaultWorkers()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// runGrid evaluates one grid of independent sweep points on the
// configured worker pool, preserving index order. name keys the sweep's
// wall-clock profile family. When telemetry is on, each point gets its
// own child Recorder (fed by exactly one goroutine) and the children are
// merged back in grid-index order after the pool drains, which keeps the
// merged dump byte-identical at any worker count.
func runGrid[T any](c Config, name string, n int, fn func(i int, tel *telemetry.Recorder) (T, error)) ([]T, error) {
	tel := c.Telemetry
	children := make([]*telemetry.Recorder, n)
	var opts []parallel.Option
	var stop func()
	if tel != nil {
		for i := range children {
			children[i] = tel.Child(i)
		}
		pp := tel.Prof.Pool(name)
		opts = append(opts, parallel.WithHooks(parallel.Hooks{PoolStart: pp.PoolStart, TaskStart: pp.TaskStart}))
		stop = tel.Prof.Start(name)
	}
	out, err := parallel.Map(context.Background(), c.Workers, n, func(_ context.Context, i int) (T, error) {
		return fn(i, children[i])
	}, opts...)
	if stop != nil {
		stop()
	}
	if err != nil {
		return nil, err
	}
	if tel != nil {
		for _, ch := range children {
			tel.Merge(ch)
		}
	}
	return out, nil
}

// system builds the platform for given memory parameters.
func (c Config) system(alphaM, xiM float64) power.System {
	sys := power.DefaultSystem()
	sys.Cores = c.Cores
	sys.Core.BreakEven = c.CoreBreakEven
	sys.Memory.Static = alphaM
	sys.Memory.BreakEven = xiM
	return sys
}

// Comparison holds the per-run results of all compared schedulers.
// SDEMONZ is the α=0-planned SDEM-ON variant, which matches the
// evaluated behaviour of the paper (see online.Options.PlanAlphaZero).
type Comparison struct {
	MBKP, MBKPS, SDEMON, SDEMONZ *sim.Result
}

// Compare runs all compared schedulers on one task set. A non-nil tel is
// attached to every scheduler's run; the sched= label distinguishes them
// in the output.
func Compare(tasks task.Set, sys power.System, cores int, tel *telemetry.Recorder) (*Comparison, error) { //lint:allow auditcheck: wraps simulator results normalized by each scheduler
	mbkp, err := baseline.MBKP(tasks, sys, cores, tel)
	if err != nil {
		return nil, fmt.Errorf("experiments: MBKP: %w", err)
	}
	mbkps, err := baseline.MBKPS(tasks, sys, cores, tel)
	if err != nil {
		return nil, fmt.Errorf("experiments: MBKPS: %w", err)
	}
	sdem, err := online.Schedule(tasks, sys, online.Options{Cores: cores, Telemetry: tel})
	if err != nil {
		return nil, fmt.Errorf("experiments: SDEM-ON: %w", err)
	}
	sdemZ, err := online.Schedule(tasks, sys, online.Options{Cores: cores, PlanAlphaZero: true, Telemetry: tel})
	if err != nil {
		return nil, fmt.Errorf("experiments: SDEM-ON-Z: %w", err)
	}
	return &Comparison{MBKP: mbkp, MBKPS: mbkps, SDEMON: sdem, SDEMONZ: sdemZ}, nil
}

// Point is one averaged data point of a series.
type Point struct {
	// X is the swept parameter value (U, α_m in watts, ξ_m or x in
	// seconds).
	X float64
	// SDEMON, SDEMONZ and MBKPS are the energy-saving ratios versus MBKP
	// (SDEMONZ is the α=0-planned variant closest to the paper's
	// evaluated behaviour).
	SDEMON, SDEMONZ, MBKPS stats.Summary
	// Improvement is SDEM-ON's saving relative to MBKPS directly:
	// (E_MBKPS − E_SDEMON)/E_MBKPS (the Fig. 7 metric); ImprovementZ is
	// the same for the α=0-planned variant.
	Improvement, ImprovementZ stats.Summary
	// Misses counts deadline misses across all runs and schedulers
	// (expected 0; reported for transparency).
	Misses int
}

// Series is one experiment curve.
type Series struct {
	Name   string
	XLabel string
	Points []Point
}

// metric selects which audited energy a saving ratio is computed from.
type metric func(*sim.Result) float64

func systemEnergy(r *sim.Result) float64 { return r.Energy }

func memoryEnergy(r *sim.Result) float64 {
	return r.Breakdown.MemoryStatic + r.Breakdown.MemoryTransition
}

// sweepPoint averages one data point across random cases. gen receives
// the case index; callers derive the workload seed from it and the grid
// coordinates (stats.DeriveSeed), keeping the point a pure function of
// its coordinates.
func (c Config) sweepPoint(tel *telemetry.Recorder, x float64, gen func(caseIdx int) (task.Set, error), sys power.System, m metric) (Point, error) {
	var sdem, sdemZ, mbkps, impr, imprZ []float64
	misses := 0
	for s := 0; s < c.Seeds; s++ {
		tasks, err := gen(s)
		if err != nil {
			return Point{}, err
		}
		cmp, err := Compare(tasks, sys, c.Cores, tel)
		if err != nil {
			return Point{}, err
		}
		misses += len(cmp.MBKP.Misses) + len(cmp.MBKPS.Misses) +
			len(cmp.SDEMON.Misses) + len(cmp.SDEMONZ.Misses)
		base := m(cmp.MBKP)
		sdem = append(sdem, stats.SavingRatio(base, m(cmp.SDEMON)))
		sdemZ = append(sdemZ, stats.SavingRatio(base, m(cmp.SDEMONZ)))
		mbkps = append(mbkps, stats.SavingRatio(base, m(cmp.MBKPS)))
		impr = append(impr, stats.SavingRatio(m(cmp.MBKPS), m(cmp.SDEMON)))
		imprZ = append(imprZ, stats.SavingRatio(m(cmp.MBKPS), m(cmp.SDEMONZ)))
		tel.ObserveL("sdem.sweep.saving", "sched=sdem-on", sdem[len(sdem)-1])
		tel.ObserveL("sdem.sweep.saving", "sched=sdem-on-z", sdemZ[len(sdemZ)-1])
		tel.ObserveL("sdem.sweep.saving", "sched=mbkps", mbkps[len(mbkps)-1])
		tel.Observe("sdem.sweep.point_energy_j", base)
	}
	tel.Count("sdem.sweep.points", 1)
	tel.Count("sdem.sweep.cases", int64(c.Seeds))
	tel.Count("sdem.sweep.misses", int64(misses))
	return Point{
		X:            x,
		SDEMON:       stats.Summarize(sdem),
		SDEMONZ:      stats.Summarize(sdemZ),
		MBKPS:        stats.Summarize(mbkps),
		Improvement:  stats.Summarize(impr),
		ImprovementZ: stats.Summarize(imprZ),
		Misses:       misses,
	}, nil
}

// benchmarkSeed derives the workload seed of one Fig. 6 grid point.
func (c Config) benchmarkSeed(kernel workload.Kernel, u float64, caseIdx int) int64 {
	return stats.DeriveSeed(c.Seed, domainFig6, uint64(kernel), stats.FloatDim(u), uint64(caseIdx))
}

// Fig6a reproduces Fig. 6a: memory static energy saving of SDEM-ON and
// MBKPS versus MBKP over U ∈ [2..9], for the FFT and matrix-multiply
// benchmarks at the default α_m = 4 W, ξ_m = 40 ms.
func (c Config) Fig6a() ([]Series, error) { return c.fig6(memoryEnergy, "fig6a") }

// Fig6b reproduces Fig. 6b: system-wide energy saving over the same
// sweep.
func (c Config) Fig6b() ([]Series, error) { return c.fig6(systemEnergy, "fig6b") }

func (c Config) fig6(m metric, name string) ([]Series, error) {
	return c.fig6Kernels(m, name, []workload.Kernel{workload.KernelFFT, workload.KernelMatMul})
}

// Fig6Extended runs the Fig. 6b sweep over the additional DSPstone
// kernels whose cycle counts this library models beyond the paper's two
// (FIR filtering and IIR biquad cascades) — an extension experiment, not
// a paper artifact.
func (c Config) Fig6Extended() ([]Series, error) {
	return c.fig6Kernels(systemEnergy, "fig6ext", []workload.Kernel{workload.KernelFIR, workload.KernelIIR})
}

func (c Config) fig6Kernels(m metric, name string, kernels []workload.Kernel) ([]Series, error) {
	c = c.withDefaults()
	sys := c.system(4, power.Milliseconds(40))
	nu := len(Table4.U)
	pts, err := runGrid(c, name, len(kernels)*nu, func(i int, tel *telemetry.Recorder) (Point, error) {
		kernel, u := kernels[i/nu], Table4.U[i%nu]
		return c.sweepPoint(tel, u, func(caseIdx int) (task.Set, error) {
			return workload.Benchmark(
				workload.BenchmarkConfig{N: c.Tasks, Kernel: kernel, U: u},
				c.benchmarkSeed(kernel, u, caseIdx))
		}, sys, m)
	})
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(kernels))
	for k, kernel := range kernels {
		out[k] = Series{
			Name:   fmt.Sprintf("%s/%s", name, kernel),
			XLabel: "U",
			Points: pts[k*nu : (k+1)*nu],
		}
	}
	return out, nil
}

// Fig7a reproduces Fig. 7a: system-wide energy saving improvement of
// SDEM-ON over MBKPS across memory static powers α_m ∈ [1..8] W and
// utilizations x ∈ [100..800] ms (ξ_m fixed at 40 ms). One series per
// α_m value.
func (c Config) Fig7a() ([]Series, error) {
	c = c.withDefaults()
	systems := make([]power.System, len(Table4.AlphaM))
	for i, am := range Table4.AlphaM {
		dram, err := cacti.ForStaticPower(am)
		if err != nil {
			return nil, err
		}
		dram = dram.ScaleBreakEven(power.Milliseconds(40))
		systems[i] = c.system(dram.StaticPower(), dram.BreakEven())
	}
	nx := len(Table4.X)
	pts, err := runGrid(c, "fig7a", len(Table4.AlphaM)*nx, func(i int, tel *telemetry.Recorder) (Point, error) {
		am, x := Table4.AlphaM[i/nx], Table4.X[i%nx]
		return c.sweepPoint(tel, x, func(caseIdx int) (task.Set, error) {
			seed := stats.DeriveSeed(c.Seed, domainFig7a, stats.FloatDim(am), stats.FloatDim(x), uint64(caseIdx))
			return workload.Synthetic(workload.SyntheticConfig{N: c.Tasks, MaxInterArrival: x}, seed)
		}, systems[i/nx], systemEnergy)
	})
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(Table4.AlphaM))
	for i, am := range Table4.AlphaM {
		out[i] = Series{
			Name:   fmt.Sprintf("fig7a/alpha_m=%gW", am),
			XLabel: "x (s)",
			Points: pts[i*nx : (i+1)*nx],
		}
	}
	return out, nil
}

// Fig7b reproduces Fig. 7b: system-wide energy saving improvement across
// memory break-even times ξ_m ∈ [15..70] ms and utilizations (α_m fixed
// at 4 W). One series per ξ_m value.
func (c Config) Fig7b() ([]Series, error) {
	c = c.withDefaults()
	nx := len(Table4.X)
	pts, err := runGrid(c, "fig7b", len(Table4.XiM)*nx, func(i int, tel *telemetry.Recorder) (Point, error) {
		xim, x := Table4.XiM[i/nx], Table4.X[i%nx]
		return c.sweepPoint(tel, x, func(caseIdx int) (task.Set, error) {
			seed := stats.DeriveSeed(c.Seed, domainFig7b, stats.FloatDim(xim), stats.FloatDim(x), uint64(caseIdx))
			return workload.Synthetic(workload.SyntheticConfig{N: c.Tasks, MaxInterArrival: x}, seed)
		}, c.system(4, xim), systemEnergy)
	})
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(Table4.XiM))
	for i, xim := range Table4.XiM {
		out[i] = Series{
			Name:   fmt.Sprintf("fig7b/xi_m=%gms", xim*1e3),
			XLabel: "x (s)",
			Points: pts[i*nx : (i+1)*nx],
		}
	}
	return out, nil
}

// AblationPoint compares the title question's poles on one operating
// point.
type AblationPoint struct {
	X                                  float64
	RaceToIdle, CriticalSpeed, SDEMON  stats.Summary // savings vs MBKP
	RaceMisses, CritMisses, SDEMMisses int
}

// Ablation runs the race-to-idle / critical-speed / SDEM-ON comparison
// over the utilization sweep (ablation A1 of DESIGN.md): "race to idle or
// not" — neither pole wins everywhere, the balanced scheme does.
func (c Config) Ablation() ([]AblationPoint, error) {
	c = c.withDefaults()
	sys := c.system(4, power.Milliseconds(40))
	return runGrid(c, "ablation", len(Table4.X), func(i int, tel *telemetry.Recorder) (AblationPoint, error) {
		x := Table4.X[i]
		var race, crit, sdem []float64
		pt := AblationPoint{X: x}
		for s := 0; s < c.Seeds; s++ {
			seed := stats.DeriveSeed(c.Seed, domainAblation, stats.FloatDim(x), uint64(s))
			tasks, err := workload.Synthetic(workload.SyntheticConfig{N: c.Tasks, MaxInterArrival: x}, seed)
			if err != nil {
				return AblationPoint{}, err
			}
			mbkp, err := baseline.MBKP(tasks, sys, c.Cores, tel)
			if err != nil {
				return AblationPoint{}, err
			}
			r, err := baseline.RaceToIdle(tasks, sys, c.Cores, tel)
			if err != nil {
				return AblationPoint{}, err
			}
			cr, err := baseline.CriticalSpeed(tasks, sys, c.Cores, tel)
			if err != nil {
				return AblationPoint{}, err
			}
			sd, err := online.Schedule(tasks, sys, online.Options{Cores: c.Cores, Telemetry: tel})
			if err != nil {
				return AblationPoint{}, err
			}
			race = append(race, stats.SavingRatio(mbkp.Energy, r.Energy))
			crit = append(crit, stats.SavingRatio(mbkp.Energy, cr.Energy))
			sdem = append(sdem, stats.SavingRatio(mbkp.Energy, sd.Energy))
			pt.RaceMisses += len(r.Misses)
			pt.CritMisses += len(cr.Misses)
			pt.SDEMMisses += len(sd.Misses)
		}
		pt.RaceToIdle = stats.Summarize(race)
		pt.CriticalSpeed = stats.Summarize(crit)
		pt.SDEMON = stats.Summarize(sdem)
		tel.Count("sdem.sweep.points", 1)
		tel.Count("sdem.sweep.cases", int64(c.Seeds))
		tel.Count("sdem.sweep.misses", int64(pt.RaceMisses+pt.CritMisses+pt.SDEMMisses))
		return pt, nil
	})
}

// AblationProcrastination measures ablation A2: SDEM-ON with and without
// the latest-execution-point postponement, as savings vs MBKP over the
// utilization sweep.
func (c Config) AblationProcrastination() ([]Point, error) {
	c = c.withDefaults()
	sys := c.system(4, power.Milliseconds(40))
	return runGrid(c, "procrastination", len(Table4.X), func(i int, tel *telemetry.Recorder) (Point, error) {
		x := Table4.X[i]
		var with, without, impr []float64
		pt := Point{X: x}
		for s := 0; s < c.Seeds; s++ {
			seed := stats.DeriveSeed(c.Seed, domainProcrastinate, stats.FloatDim(x), uint64(s))
			tasks, err := workload.Synthetic(workload.SyntheticConfig{N: c.Tasks, MaxInterArrival: x}, seed)
			if err != nil {
				return Point{}, err
			}
			mbkp, err := baseline.MBKP(tasks, sys, c.Cores, tel)
			if err != nil {
				return Point{}, err
			}
			a, err := online.Schedule(tasks, sys, online.Options{Cores: c.Cores, Telemetry: tel})
			if err != nil {
				return Point{}, err
			}
			b, err := online.Schedule(tasks, sys, online.Options{Cores: c.Cores, NoProcrastinate: true, Telemetry: tel})
			if err != nil {
				return Point{}, err
			}
			with = append(with, stats.SavingRatio(mbkp.Energy, a.Energy))
			without = append(without, stats.SavingRatio(mbkp.Energy, b.Energy))
			impr = append(impr, stats.SavingRatio(b.Energy, a.Energy))
			pt.Misses += len(a.Misses) + len(b.Misses)
		}
		pt.SDEMON = stats.Summarize(with)
		pt.MBKPS = stats.Summarize(without) // reused column: no-procrastination variant
		pt.Improvement = stats.Summarize(impr)
		tel.Count("sdem.sweep.points", 1)
		tel.Count("sdem.sweep.cases", int64(c.Seeds))
		tel.Count("sdem.sweep.misses", int64(pt.Misses))
		return pt, nil
	})
}
