package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			acc += x[t] * cmplx.Rect(1, ang)
		}
		out[k] = acc
	}
	return out
}

func randomSignal(r *rand.Rand, n int) []complex128 {
	s := make([]complex128, n)
	for i := range s {
		s[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return s
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	cm := DefaultCostModel()
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		sig := randomSignal(r, n)
		got, err := FFT(sig, cm)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveDFT(sig)
		for k := range want {
			if cmplx.Abs(got.Output[k]-want[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: bin %d = %v, want %v", n, k, got.Output[k], want[k])
			}
		}
	}
}

// inverseFFT inverts FFT through the conjugate identity
// ifft(x) = conj(fft(conj(x)))/n.
func inverseFFT(spectrum []complex128, cm CostModel) (*FFTResult, error) {
	n := len(spectrum)
	conj := make([]complex128, n)
	for i, v := range spectrum {
		conj[i] = cmplx.Conj(v)
	}
	res, err := FFT(conj, cm)
	if err != nil {
		return nil, err
	}
	for i, v := range res.Output {
		res.Output[i] = cmplx.Conj(v) / complex(float64(n), 0)
	}
	return res, nil
}

func TestFFTRoundTrip(t *testing.T) {
	cm := DefaultCostModel()
	r := rand.New(rand.NewSource(2))
	sig := randomSignal(r, 1024)
	fwd, err := FFT(sig, cm)
	if err != nil {
		t.Fatal(err)
	}
	back, err := inverseFFT(fwd.Output, cm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sig {
		if cmplx.Abs(back.Output[i]-sig[i]) > 1e-9 {
			t.Fatalf("round trip diverges at %d: %v vs %v", i, back.Output[i], sig[i])
		}
	}
}

func TestFFTParseval(t *testing.T) {
	cm := DefaultCostModel()
	r := rand.New(rand.NewSource(3))
	sig := randomSignal(r, 256)
	res, err := FFT(sig, cm)
	if err != nil {
		t.Fatal(err)
	}
	var timeE, freqE float64
	for i := range sig {
		timeE += real(sig[i])*real(sig[i]) + imag(sig[i])*imag(sig[i])
		freqE += real(res.Output[i])*real(res.Output[i]) + imag(res.Output[i])*imag(res.Output[i])
	}
	if math.Abs(freqE/float64(len(sig))-timeE) > 1e-6*timeE {
		t.Errorf("Parseval violated: time %g vs freq/N %g", timeE, freqE/256)
	}
}

func TestFFTRejectsBadLengths(t *testing.T) {
	cm := DefaultCostModel()
	for _, n := range []int{0, 3, 12, 1000} {
		if _, err := FFT(make([]complex128, n), cm); err == nil {
			t.Errorf("length %d should be rejected", n)
		}
		if _, err := FFTCycles(n, cm); err == nil {
			t.Errorf("FFTCycles(%d) should be rejected", n)
		}
	}
}

func TestFFTCyclesConsistentWithRun(t *testing.T) {
	cm := DefaultCostModel()
	sig := make([]complex128, 1024)
	res, err := FFT(sig, cm)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := FFTCycles(1024, cm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != pred {
		t.Errorf("run cycles %g != predicted %g", res.Cycles, pred)
	}
	// 1024-point FFT ≈ 5120 butterflies × 10 ≈ 5e4 cycles: a few ms at
	// 16.5 MHz, matching §8.1.1's task scale.
	window := res.Cycles / DSPClockHz
	if window < 1e-3 || window > 20e-3 {
		t.Errorf("FFT-1024 window = %g s, want a few ms", window)
	}
}

func TestMatMulCorrectness(t *testing.T) {
	cm := DefaultCostModel()
	a := Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	b := Matrix{Rows: 3, Cols: 2, Data: []float64{7, 8, 9, 10, 11, 12}}
	res, err := MatMul(a, b, cm)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if res.Product.Data[i] != v {
			t.Errorf("product[%d] = %g, want %g", i, res.Product.Data[i], v)
		}
	}
	pred, err := MatMulCycles(2, 3, 2, cm)
	if err != nil || res.Cycles != pred {
		t.Errorf("cycles %g != predicted %g (%v)", res.Cycles, pred, err)
	}
}

func TestMatMulRejectsMismatch(t *testing.T) {
	cm := DefaultCostModel()
	a := NewMatrix(2, 3)
	b := NewMatrix(4, 2)
	if _, err := MatMul(a, b, cm); err == nil {
		t.Error("dimension mismatch should be rejected")
	}
	if _, err := MatMulCycles(0, 1, 1, cm); err == nil {
		t.Error("zero dims should be rejected")
	}
}

func TestPropertyMatMulIdentity(t *testing.T) {
	cm := DefaultCostModel()
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw%6)
		a := NewMatrix(n, n)
		id := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
		}
		res, err := MatMul(a, id, cm)
		if err != nil {
			return false
		}
		for i := range a.Data {
			if math.Abs(res.Product.Data[i]-a.Data[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCyclesMonotoneInSize(t *testing.T) {
	cm := DefaultCostModel()
	prevFFT := 0.0
	for _, n := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		c, err := FFTCycles(n, cm)
		if err != nil {
			t.Fatal(err)
		}
		if c <= prevFFT {
			t.Errorf("FFT cycles not increasing at n=%d", n)
		}
		prevFFT = c
	}
	prevMM := 0.0
	for n := 2; n <= 32; n *= 2 {
		c, err := MatMulCycles(n, n, n, cm)
		if err != nil {
			t.Fatal(err)
		}
		if c <= prevMM {
			t.Errorf("MatMul cycles not increasing at n=%d", n)
		}
		prevMM = c
	}
}
