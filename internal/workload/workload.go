// Package workload synthesizes the task sets of the paper's evaluation
// (§8.1): the random synthetic workload of §8.1.2 (workloads in
// [2,5]·10⁶ cycles, feasible regions in [10,120] ms, sporadic arrivals
// with maximum inter-arrival time x) and the DSPstone benchmark workload
// of §8.1.1 (FFT and matrix-multiply instances whose windows derive from
// their cycle counts at the 16.5 MHz reference clock, released with
// period |d−r|·U). The benchmark workload is a periodic task system, and
// the related work the paper builds on (Zhong & Xu 2008, Chen et al.
// 2006) is formulated over periodic tasks, so PeriodicSystem models
// periodic and sporadic streams natively and expands them into the job
// sets the SDEM schedulers consume.
//
// All generators are deterministic in their seed.
package workload

import (
	"fmt"
	"math/rand"

	"sdem/internal/dsp"
	"sdem/internal/numeric"
	"sdem/internal/power"
	"sdem/internal/task"
)

// SyntheticConfig parameterizes the §8.1.2 generator. Zero fields take
// the paper's values.
type SyntheticConfig struct {
	// N is the number of tasks.
	N int
	// MaxInterArrival is x: successive releases are spaced uniformly in
	// [0, x]. Default 400 ms (the Table 4 starred value).
	MaxInterArrival float64
	// WorkMin and WorkMax bound the workload in cycles. Defaults 2e6 and
	// 5e6.
	WorkMin, WorkMax float64
	// WindowMin and WindowMax bound the feasible region length. Defaults
	// 10 ms and 120 ms.
	WindowMin, WindowMax float64
}

func (c SyntheticConfig) withDefaults() SyntheticConfig {
	if numeric.IsZero(c.MaxInterArrival, 0) {
		c.MaxInterArrival = power.Milliseconds(400)
	}
	if numeric.IsZero(c.WorkMin, 0) {
		c.WorkMin = 2e6
	}
	if numeric.IsZero(c.WorkMax, 0) {
		c.WorkMax = 5e6
	}
	if numeric.IsZero(c.WindowMin, 0) {
		c.WindowMin = power.Milliseconds(10)
	}
	if numeric.IsZero(c.WindowMax, 0) {
		c.WindowMax = power.Milliseconds(120)
	}
	return c
}

// Synthetic draws a §8.1.2 task set.
func Synthetic(cfg SyntheticConfig, seed int64) (task.Set, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 0 {
		return nil, fmt.Errorf("workload: negative task count %d", cfg.N)
	}
	if cfg.WorkMin > cfg.WorkMax || cfg.WindowMin > cfg.WindowMax {
		return nil, fmt.Errorf("workload: inverted ranges in %+v", cfg)
	}
	r := rand.New(rand.NewSource(seed))
	out := make(task.Set, cfg.N)
	var rel float64
	for i := range out {
		rel += r.Float64() * cfg.MaxInterArrival
		window := cfg.WindowMin + r.Float64()*(cfg.WindowMax-cfg.WindowMin)
		out[i] = task.Task{
			ID:       i,
			Release:  rel,
			Deadline: rel + window,
			Workload: cfg.WorkMin + r.Float64()*(cfg.WorkMax-cfg.WorkMin),
			Name:     fmt.Sprintf("syn#%d", i),
		}
	}
	return out, nil
}

// Kernel identifies a DSPstone benchmark kernel.
type Kernel int

const (
	// KernelFFT is the 1024-point FFT benchmark.
	KernelFFT Kernel = iota
	// KernelMatMul is the [X×Y]·[Y×Z] matrix-multiply benchmark.
	KernelMatMul
	// KernelMixed alternates FFT and matrix-multiply instances.
	KernelMixed
	// KernelFIR is a 1024-sample FIR filter frame with a random tap
	// count.
	KernelFIR
	// KernelIIR is a 1024-sample biquad cascade frame with a random
	// depth.
	KernelIIR
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case KernelFFT:
		return "fft"
	case KernelMatMul:
		return "matmul"
	case KernelMixed:
		return "mixed"
	case KernelFIR:
		return "fir"
	case KernelIIR:
		return "iir"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// BenchmarkConfig parameterizes the §8.1.1 generator.
type BenchmarkConfig struct {
	// N is the number of task instances.
	N int
	// Kernel selects the benchmark.
	Kernel Kernel
	// U is the utilization divisor: the release period is |d−r|·U, so
	// larger U means a more lightly loaded system. The paper sweeps
	// U ∈ [2..9].
	U float64
	// FFTPoints is the FFT length (default 1024).
	FFTPoints int
	// MatDimMin and MatDimMax bound the random matrix dimensions
	// (defaults 24 and 48, sized so a multiply costs the same order of
	// cycles as the 1024-point FFT).
	MatDimMin, MatDimMax int
	// Batch is the number of consecutive frames one task instance
	// processes (default 4). The paper leaves the instance granularity
	// unspecified; a small buffer makes the feasible windows (≈13–32 ms)
	// commensurate with the Table 4 break-even grid — with single-frame
	// windows (≈8 ms ≪ ξ_m = 40 ms) no scheme could ever sleep and every
	// comparison would degenerate.
	Batch int
	// Cost is the DSP cycle-cost model (default dsp.DefaultCostModel).
	Cost *dsp.CostModel
}

func (c BenchmarkConfig) withDefaults() BenchmarkConfig {
	if c.FFTPoints == 0 {
		c.FFTPoints = 1024
	}
	if c.MatDimMin == 0 {
		c.MatDimMin = 24
	}
	if c.MatDimMax == 0 {
		c.MatDimMax = 48
	}
	if c.Batch == 0 {
		c.Batch = 4
	}
	if c.Cost == nil {
		cm := dsp.DefaultCostModel()
		c.Cost = &cm
	}
	return c
}

// Benchmark draws a §8.1.1 benchmark task set: each instance's feasible
// region is its cycle count at 16.5 MHz, and instances release
// sporadically with inter-arrival uniform in [0.5, 1]·window·U (sporadic
// around the period |d−r|·U).
func Benchmark(cfg BenchmarkConfig, seed int64) (task.Set, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 0 {
		return nil, fmt.Errorf("workload: negative task count %d", cfg.N)
	}
	if cfg.U <= 0 {
		return nil, fmt.Errorf("workload: utilization divisor U=%g must be positive", cfg.U)
	}
	if cfg.MatDimMin <= 0 || cfg.MatDimMin > cfg.MatDimMax {
		return nil, fmt.Errorf("workload: bad matrix dims [%d,%d]", cfg.MatDimMin, cfg.MatDimMax)
	}
	if cfg.Batch < 0 {
		return nil, fmt.Errorf("workload: negative batch %d", cfg.Batch)
	}
	r := rand.New(rand.NewSource(seed))
	out := make(task.Set, cfg.N)
	var rel float64
	for i := range out {
		kernel := cfg.Kernel
		if kernel == KernelMixed {
			if i%2 == 0 {
				kernel = KernelFFT
			} else {
				kernel = KernelMatMul
			}
		}
		var cycles float64
		var name string
		var err error
		switch kernel {
		case KernelFFT:
			cycles, err = dsp.FFTCycles(cfg.FFTPoints, *cfg.Cost)
			name = fmt.Sprintf("fft%d#%d", cfg.FFTPoints, i)
		case KernelMatMul:
			dim := func() int { return cfg.MatDimMin + r.Intn(cfg.MatDimMax-cfg.MatDimMin+1) }
			x, y, z := dim(), dim(), dim()
			cycles, err = dsp.MatMulCycles(x, y, z, *cfg.Cost)
			name = fmt.Sprintf("mat%dx%dx%d#%d", x, y, z, i)
		case KernelFIR:
			taps := 32 + r.Intn(97) // 32..128 taps
			cycles, err = dsp.FIRCycles(1024, taps, *cfg.Cost)
			name = fmt.Sprintf("fir%d#%d", taps, i)
		case KernelIIR:
			sections := 4 + r.Intn(13) // 4..16 biquads
			cycles, err = dsp.IIRCycles(1024, sections, *cfg.Cost)
			name = fmt.Sprintf("iir%d#%d", sections, i)
		default:
			err = fmt.Errorf("workload: unknown kernel %v", kernel)
		}
		if err != nil {
			return nil, err
		}
		cycles *= float64(cfg.Batch)
		window := cycles / dsp.DSPClockHz
		out[i] = task.Task{
			ID:       i,
			Release:  rel,
			Deadline: rel + window,
			Workload: cycles,
			Name:     name,
		}
		period := window * cfg.U
		rel += period * (0.5 + 0.5*r.Float64())
	}
	return out, nil
}
