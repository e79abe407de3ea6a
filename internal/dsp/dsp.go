// Package dsp is the DSPstone benchmark substrate of the evaluation
// (§8.1.1). The paper measures FFT and matrix-multiply task instances on
// the Analog Devices xsim2101 simulator at 16.5 MHz; since that toolchain
// is proprietary, this package implements the two kernels for real —
// a radix-2 decimation-in-time FFT and a dense matrix multiply — together
// with an explicit per-operation cycle-cost model that plays the
// simulator's role: every kernel reports the cycle count a simple DSP
// would spend executing it. The workload generator turns those cycle
// counts into task parameters exactly as §8.1.1 prescribes.
package dsp

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// CostModel assigns cycle costs to the primitive operations of a simple
// single-issue DSP. The defaults approximate an ADSP-21xx-class core:
// single-cycle MAC, two-cycle memory-indirect butterflies, small loop
// overheads.
type CostModel struct {
	// MAC is the cost of one multiply-accumulate.
	MAC float64
	// ComplexButterfly is the cost of one radix-2 butterfly (one complex
	// multiply, two complex adds, and the twiddle fetch).
	ComplexButterfly float64
	// LoadStore is the cost of moving one word between memory and a
	// register when not hidden behind a MAC.
	LoadStore float64
	// LoopOverhead is charged once per loop iteration level.
	LoopOverhead float64
	// CallOverhead is charged once per kernel invocation.
	CallOverhead float64
}

// DefaultCostModel returns the ADSP-21xx-flavoured defaults.
func DefaultCostModel() CostModel {
	return CostModel{
		MAC: 1,
		// A fixed-point radix-2 butterfly on a 16-bit DSP: four real
		// multiplies, six adds/subtracts, operand loads, twiddle fetch
		// and block-floating-point scaling.
		ComplexButterfly: 25,
		LoadStore:        1,
		LoopOverhead:     2,
		CallOverhead:     50,
	}
}

// DSPClockHz is the 16.5 MHz reference clock of §8.1.1 used to convert
// cycle counts into feasible-region lengths.
const DSPClockHz = 16.5e6

// FFTResult is the outcome of an FFT run.
type FFTResult struct {
	// Output is the frequency-domain signal.
	Output []complex128
	// Cycles is the modelled DSP cycle count.
	Cycles float64
}

// FFT computes the radix-2 decimation-in-time FFT of a power-of-two
// length signal and reports the modelled cycle count.
func FFT(signal []complex128, cm CostModel) (*FFTResult, error) {
	n := len(signal)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	out := make([]complex128, n)
	copy(out, signal)

	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			out[i], out[j] = out[j], out[i]
		}
	}

	// Butterfly stages.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := out[i+j]
				v := out[i+j+length/2] * w
				out[i+j] = u + v
				out[i+j+length/2] = u - v
				w *= wl
			}
		}
	}

	stages := math.Log2(float64(n))
	butterflies := float64(n) / 2 * stages
	cycles := cm.CallOverhead +
		butterflies*cm.ComplexButterfly +
		float64(n)*(2*cm.LoadStore) + // bit-reversal traffic
		stages*cm.LoopOverhead
	return &FFTResult{Output: out, Cycles: cycles}, nil
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) Matrix {
	return Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// MatMulResult is the outcome of a matrix multiply.
type MatMulResult struct {
	Product Matrix
	Cycles  float64
}

// MatMul multiplies [X×Y]·[Y×Z] and reports the modelled cycle count:
// X·Z dot products of length Y, each a MAC chain with loop overhead.
func MatMul(a, b Matrix, cm CostModel) (*MatMulResult, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("dsp: dimension mismatch [%dx%d]·[%dx%d]", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if len(a.Data) != a.Rows*a.Cols || len(b.Data) != b.Rows*b.Cols {
		return nil, errors.New("dsp: malformed matrix backing slice")
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var acc float64
			for k := 0; k < a.Cols; k++ {
				acc += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, acc)
		}
	}
	x, y, z := float64(a.Rows), float64(a.Cols), float64(b.Cols)
	cycles := cm.CallOverhead +
		x*z*(y*cm.MAC+cm.LoopOverhead+cm.LoadStore) +
		x*cm.LoopOverhead
	return &MatMulResult{Product: out, Cycles: cycles}, nil
}

// FFTCycles returns the modelled cycle count of an n-point FFT without
// running it (n must be a power of two).
func FFTCycles(n int, cm CostModel) (float64, error) {
	if n == 0 || n&(n-1) != 0 {
		return 0, fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	stages := math.Log2(float64(n))
	return cm.CallOverhead +
		float64(n)/2*stages*cm.ComplexButterfly +
		float64(n)*(2*cm.LoadStore) +
		stages*cm.LoopOverhead, nil
}

// MatMulCycles returns the modelled cycle count of an [x×y]·[y×z]
// multiply without running it.
func MatMulCycles(x, y, z int, cm CostModel) (float64, error) {
	if x <= 0 || y <= 0 || z <= 0 {
		return 0, fmt.Errorf("dsp: non-positive matrix dims %d×%d·%d×%d", x, y, y, z)
	}
	fx, fy, fz := float64(x), float64(y), float64(z)
	return cm.CallOverhead +
		fx*fz*(fy*cm.MAC+cm.LoopOverhead+cm.LoadStore) +
		fx*cm.LoopOverhead, nil
}
