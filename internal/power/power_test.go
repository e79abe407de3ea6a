package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*math.Max(scale, 1)
}

func TestUnitHelpers(t *testing.T) {
	if got := MHz(1900); got != 1.9e9 {
		t.Errorf("MHz(1900) = %g, want 1.9e9", got)
	}
	if got := Milliseconds(40); got != 0.040 {
		t.Errorf("Milliseconds(40) = %g, want 0.04", got)
	}
}

func TestBetaConversion(t *testing.T) {
	// 2.53e-7 mW/MHz^3 must become 2.53e-28 W/Hz^3.
	got := BetaFromMilliwattPerMHzPow(2.53e-7, 3)
	if !almostEqual(got, 2.53e-28, 1e-12) {
		t.Errorf("beta = %g, want 2.53e-28", got)
	}
}

func TestCortexA57Preset(t *testing.T) {
	c := CortexA57()
	if err := c.Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
	// At the max frequency the A57 core should draw on the order of 1.7 W
	// dynamic power (AnandTech measurements cited by the paper).
	p := c.Dynamic(MHz(1900))
	if p < 1.5 || p > 2.0 {
		t.Errorf("dynamic power at 1.9 GHz = %g W, want ~1.74 W", p)
	}
	if c.Static != 0.310 {
		t.Errorf("static = %g, want 0.310", c.Static)
	}
}

func TestCriticalSpeedMinimizesPerCycleEnergy(t *testing.T) {
	c := CortexA57()
	c.SpeedMax = 0 // unconstrained for this test
	sm := c.CriticalSpeedRaw()
	if sm <= 0 {
		t.Fatal("critical speed must be positive for a leaky core")
	}
	// s_m must be ~850 MHz for the A57 constants.
	if sm < MHz(700) || sm > MHz(1000) {
		t.Errorf("s_m = %g MHz, want ~850 MHz", sm/1e6)
	}
	w := 3e6 // cycles
	best := c.EnergyFor(w, sm)
	for _, f := range []float64{0.25, 0.5, 0.9, 0.99, 1.01, 1.1, 2, 4} {
		if f == 1 {
			continue
		}
		e := c.EnergyFor(w, sm*f)
		if e < best {
			t.Errorf("energy at %.2f·s_m (%g) beats energy at s_m (%g)", f, e, best)
		}
	}
}

func TestMemoryCriticalSpeedOrdering(t *testing.T) {
	c := CortexA57()
	c.SpeedMax = 0
	mem := Memory{Static: 4}
	s0 := c.CriticalSpeedRaw()
	s1 := c.MemoryCriticalSpeedRaw(mem)
	if s1 <= s0 {
		t.Errorf("s_cm (%g) must exceed s_m (%g) when the memory leaks", s1, s0)
	}
	// s_1 minimizes core+memory per-cycle energy.
	w := 2e6
	perCycle := func(s float64) float64 {
		return (c.Power(s) + mem.Static) * w / s
	}
	best := perCycle(s1)
	for _, f := range []float64{0.5, 0.8, 0.95, 1.05, 1.2, 2} {
		if e := perCycle(s1 * f); e < best-1e-12 {
			t.Errorf("per-cycle energy at %.2f·s_cm (%g) beats s_cm (%g)", f, e, best)
		}
	}
}

func TestCriticalSpeedClamping(t *testing.T) {
	c := CortexA57()
	sm := c.CriticalSpeedRaw()

	// Filled speed below s_m: critical speed is s_m.
	if got := c.CriticalSpeed(sm / 2); got != sm {
		t.Errorf("CriticalSpeed(s_m/2) = %g, want s_m = %g", got, sm)
	}
	// Filled speed above s_m: must run at filled speed.
	if got := c.CriticalSpeed(sm * 1.5); got != sm*1.5 {
		t.Errorf("CriticalSpeed(1.5 s_m) = %g, want %g", got, sm*1.5)
	}
	// Filled speed above SpeedMax is returned as-is even though it is
	// infeasible; feasibility is the caller's concern.
	if got := c.CriticalSpeed(c.SpeedMax * 2); got != c.SpeedMax {
		t.Errorf("CriticalSpeed above cap = %g, want cap %g", got, c.SpeedMax)
	}
}

func TestConstrainedCriticalSpeed(t *testing.T) {
	c := CortexA57()
	c.BreakEven = Milliseconds(10)
	w := 2e6 // ~2.35 ms at s_m≈850MHz
	sm := c.CriticalSpeedRaw()
	filled := w / Milliseconds(100)

	// Long horizon: plenty of tail to sleep in, so s_c = s_0.
	if got := c.ConstrainedCriticalSpeed(sm, filled, w, Milliseconds(100)); !almostEqual(got, sm, 1e-12) {
		t.Errorf("long horizon: s_c = %g, want s_m %g", got, sm)
	}
	// Horizon barely longer than the execution: the idle tail is shorter
	// than ξ, so the task should stretch to its filled speed.
	tight := w/sm + Milliseconds(5)
	filledTight := w / tight
	if got := c.ConstrainedCriticalSpeed(sm, filledTight, w, tight); !almostEqual(got, filledTight, 1e-12) {
		t.Errorf("tight horizon: s_c = %g, want filled %g", got, filledTight)
	}
}

func TestSleepGainAndTransitionEnergy(t *testing.T) {
	mem := Memory{Static: 4, BreakEven: Milliseconds(40)}
	if got := mem.TransitionEnergy(); !almostEqual(got, 0.16, 1e-12) {
		t.Errorf("memory transition energy = %g, want 0.16 J", got)
	}
	// The net energy saved by sleeping through an idle gap rather than
	// idling: the idle charge α_m·gap minus one sleep/wake cycle.
	sleepGain := func(gap float64) float64 { return mem.Static*gap - mem.TransitionEnergy() }
	if gain := sleepGain(Milliseconds(40)); !almostEqual(gain, 0, 1e-12) {
		t.Errorf("sleeping exactly the break-even time should be net zero, got %g", gain)
	}
	if gain := sleepGain(Milliseconds(20)); gain >= 0 {
		t.Errorf("sleeping for less than break-even must lose energy, got %g", gain)
	}
	if gain := sleepGain(Milliseconds(100)); !almostEqual(gain, 0.24, 1e-12) {
		t.Errorf("gain for 100 ms sleep = %g, want 0.24 J", gain)
	}
	core := Core{Static: 0.3, Beta: 1, Lambda: 3, BreakEven: 0.01}
	if got := core.TransitionEnergy(); !almostEqual(got, 0.003, 1e-12) {
		t.Errorf("core transition energy = %g, want 0.003", got)
	}
}

func TestEnergyForEdgeCases(t *testing.T) {
	c := CortexA57()
	if got := c.EnergyFor(0, 0); got != 0 {
		t.Errorf("zero workload must cost zero, got %g", got)
	}
	if got := c.EnergyFor(1e6, 0); !math.IsInf(got, 1) {
		t.Errorf("zero speed with positive work must be +Inf, got %g", got)
	}
	if got := c.Dynamic(-5); got != 0 {
		t.Errorf("negative speed dynamic power = %g, want 0", got)
	}
}

func TestValidate(t *testing.T) {
	good := DefaultSystem()
	if err := good.Validate(); err != nil {
		t.Fatalf("default system invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*System)
	}{
		{"zero beta", func(s *System) { s.Core.Beta = 0 }},
		{"lambda 1", func(s *System) { s.Core.Lambda = 1 }},
		{"negative static", func(s *System) { s.Core.Static = -1 }},
		{"min above max", func(s *System) { s.Core.SpeedMin = s.Core.SpeedMax * 2 }},
		{"negative break-even", func(s *System) { s.Core.BreakEven = -1 }},
		{"negative memory static", func(s *System) { s.Memory.Static = -1 }},
		{"negative memory break-even", func(s *System) { s.Memory.BreakEven = -1 }},
		{"negative cores", func(s *System) { s.Cores = -1 }},
	}
	for _, tc := range cases {
		s := DefaultSystem()
		tc.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestSystemModel(t *testing.T) {
	cases := []struct {
		name string
		sys  System
		want Model
	}{
		{"zero system", System{}, ModelAlphaZero},
		{"core static", System{Core: Core{Static: 0.31}}, ModelStatic},
		{"memory static only", System{Memory: Memory{Static: 4}}, ModelAlphaZero},
		{"core break-even", System{Core: Core{BreakEven: 1e-3}}, ModelOverhead},
		{"memory break-even, alpha zero", System{Memory: Memory{Static: 4, BreakEven: 0.04}}, ModelOverhead},
		{"default system", DefaultSystem(), ModelOverhead},
	}
	for _, tc := range cases {
		if got := tc.sys.Model(); got != tc.want {
			t.Errorf("%s: Model() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestPropertyEnergyConvexInSpeed(t *testing.T) {
	// Property: for any positive workload, E(w, s) is convex in s, so the
	// midpoint energy never exceeds the average of the endpoints.
	c := CortexA57()
	c.SpeedMax = 0
	f := func(wRaw, aRaw, bRaw uint32) bool {
		w := 1e5 + float64(wRaw%1000)*1e4
		a := MHz(100 + float64(aRaw%3000))
		b := MHz(100 + float64(bRaw%3000))
		mid := (a + b) / 2
		return c.EnergyFor(w, mid) <= (c.EnergyFor(w, a)+c.EnergyFor(w, b))/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCriticalSpeedIsArgmin(t *testing.T) {
	// Property: for random leaky cores, no sampled speed beats s_m on
	// per-cycle energy.
	f := func(alphaRaw, betaRaw, sRaw uint32) bool {
		c := Core{
			Static: 0.05 + float64(alphaRaw%1000)/1000,
			Beta:   1e-28 * (1 + float64(betaRaw%100)),
			Lambda: 3,
		}
		sm := c.CriticalSpeedRaw()
		s := sm * (0.1 + float64(sRaw%500)/100) // 0.1·s_m .. 5.1·s_m
		return c.EnergyFor(1e6, s) >= c.EnergyFor(1e6, sm)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCortexA7Preset(t *testing.T) {
	little := CortexA7()
	if err := little.Validate(); err != nil {
		t.Fatal(err)
	}
	big := CortexA57()
	// The LITTLE core leaks and burns less, peaks lower, and has a lower
	// critical speed.
	if little.Static >= big.Static {
		t.Error("A7 must leak less than A57")
	}
	if little.Dynamic(MHz(1300)) >= big.Dynamic(MHz(1300)) {
		t.Error("A7 must burn less dynamic power at the same frequency")
	}
	if little.SpeedMax >= big.SpeedMax {
		t.Error("A7 peaks below the A57")
	}
	if little.CriticalSpeedRaw() >= big.CriticalSpeedRaw() {
		t.Error("lower leakage implies a lower critical speed")
	}
	// Sanity: ~0.4 W dynamic at peak.
	if p := little.Dynamic(MHz(1300)); p < 0.25 || p > 0.6 {
		t.Errorf("A7 peak dynamic power %g W, want ≈0.4", p)
	}
}

// samePow reports whether got carries math.Pow's bits, or is NaN where
// math.Pow is (NaN payloads are not part of the contract).
func samePow(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// TestPowKernelMatchesMathPow pins the power-law kernel to math.Pow, its
// oracle, bit for bit: on the cube law over random x spanning the ranges
// the solvers feed it (workloads in cycles, speeds in Hz, busy lengths
// and completions in seconds) and at the special values, and on the
// math.Pow path for random non-cube λ. The identity holds in the normal
// range, where x·x and the result are normal numbers; the bands where
// x³ or x·x is subnormal (x below about 1e-103, or in (2^-512, 2^-511)
// for the reciprocal) round differently and are not probed, since no
// solver input reaches them.
func TestPowKernelMatchesMathPow(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	// Log-uniform draws over [lo, hi].
	ranges := []struct {
		name   string
		lo, hi float64
	}{
		{"workload", 1e3, 1e12},
		{"speed", 1e5, 1e12},
		{"length", 1e-9, 1e4},
	}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, math.MaxFloat64, math.SmallestNonzeroFloat64}
	check := func(c Core, x float64) {
		t.Helper()
		if got, want := c.PowLambda(x), math.Pow(x, c.Lambda); !samePow(got, want) {
			t.Fatalf("λ %v: PowLambda(%.17g) = %.17g, math.Pow %.17g", c.Lambda, x, got, want)
		}
		if got, want := c.PowOneMinusLambda(x), math.Pow(x, 1-c.Lambda); !samePow(got, want) {
			t.Fatalf("λ %v: PowOneMinusLambda(%.17g) = %.17g, math.Pow %.17g", c.Lambda, x, got, want)
		}
	}
	cube := CortexA57()
	for _, x := range specials {
		check(cube, x)
	}
	for _, rg := range ranges {
		for i := 0; i < 200000; i++ {
			check(cube, rg.lo*math.Pow(rg.hi/rg.lo, r.Float64()))
		}
	}
	for i := 0; i < 2000; i++ {
		c := Core{Lambda: 1 + 3*r.Float64()}
		rg := ranges[r.Intn(len(ranges))]
		check(c, rg.lo*math.Pow(rg.hi/rg.lo, r.Float64()))
		check(c, specials[r.Intn(len(specials))])
	}
}
