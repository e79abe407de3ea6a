package dsp

import "fmt"

// This file models the cycle counts of two more classic DSPstone kernels
// beyond FFT and matrix multiply, FIR filtering and the IIR biquad
// cascade, extending the workload generator's repertoire. Unlike FFT and
// MatMul they are not run: only their cycle counts feed task parameters.

// FIRCycles returns the modelled cycle count of an n-sample, t-tap FIR:
// one MAC per tap per sample (the single-cycle-MAC showcase of every
// DSP), plus per-sample loop overhead and one store.
func FIRCycles(n, taps int, cm CostModel) (float64, error) {
	if n < 0 || taps <= 0 {
		return 0, fmt.Errorf("dsp: bad FIR shape n=%d taps=%d", n, taps)
	}
	fn, ft := float64(n), float64(taps)
	return cm.CallOverhead + fn*(ft*cm.MAC+cm.LoopOverhead+cm.LoadStore), nil
}

// IIRCycles returns the modelled cycle count of an n-sample cascade of k
// biquads: 5 MACs plus state shuffling per section per sample.
func IIRCycles(n, sections int, cm CostModel) (float64, error) {
	if n < 0 || sections <= 0 {
		return 0, fmt.Errorf("dsp: bad IIR shape n=%d sections=%d", n, sections)
	}
	fn, fs := float64(n), float64(sections)
	perSample := 5*cm.MAC + 4*cm.LoadStore + cm.LoopOverhead
	return cm.CallOverhead + fn*fs*perSample, nil
}
