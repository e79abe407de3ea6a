package cacti

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultPointMatchesPaper(t *testing.T) {
	// A 2 GiB 50 nm part should leak ≈4 W (the paper's default α_m) with
	// a break-even inside the 15–70 ms Table 4 range.
	d := DRAM{TechNM: 50, CapacityMB: 2048}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if am := d.StaticPower(); math.Abs(am-4.096) > 0.01 {
		t.Errorf("α_m = %g W, want ≈4.1", am)
	}
	be := d.BreakEven()
	if be < 0.015 || be > 0.070 {
		t.Errorf("ξ_m = %g s, want within [15,70] ms", be)
	}
}

func TestLeakageScaling(t *testing.T) {
	big := DRAM{TechNM: 50, CapacityMB: 4096}
	small := DRAM{TechNM: 50, CapacityMB: 1024}
	if big.StaticPower() <= small.StaticPower() {
		t.Error("leakage must grow with capacity")
	}
	if ratio := big.StaticPower() / small.StaticPower(); math.Abs(ratio-4) > 1e-9 {
		t.Errorf("leakage should be linear in capacity, ratio = %g", ratio)
	}
	older := DRAM{TechNM: 90, CapacityMB: 2048}
	newer := DRAM{TechNM: 45, CapacityMB: 2048}
	if newer.StaticPower() <= older.StaticPower() {
		t.Error("leakage must grow as the node shrinks")
	}
	if ratio := newer.StaticPower() / older.StaticPower(); math.Abs(ratio-4) > 1e-9 {
		t.Errorf("quadratic node scaling expected, ratio = %g", ratio)
	}
}

func TestForStaticPowerInverts(t *testing.T) {
	for _, am := range []float64{1, 2, 3.5, 8} {
		d, err := ForStaticPower(am)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.StaticPower(); math.Abs(got-am) > 1e-9 {
			t.Errorf("ForStaticPower(%g) leaks %g", am, got)
		}
	}
	if _, err := ForStaticPower(0); err == nil {
		t.Error("zero α_m must be rejected")
	}
}

// TestTable4GridSpansPaperRange: ForStaticPower realizes every point of
// the paper's α_m ∈ {1..8} W sweep as a valid 50 nm DRAM.
func TestTable4GridSpansPaperRange(t *testing.T) {
	for am := 1.0; am <= 8; am++ {
		d, err := ForStaticPower(am)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.StaticPower(); math.Abs(got-am) > 1e-9 {
			t.Errorf("α_m %g leaks %g", am, got)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("α_m %g invalid: %v", am, err)
		}
	}
}

func TestScaleBreakEven(t *testing.T) {
	d, _ := ForStaticPower(4)
	for _, xi := range []float64{0.015, 0.030, 0.070} {
		scaled := d.ScaleBreakEven(xi)
		if got := scaled.BreakEven(); math.Abs(got-xi) > 1e-12 {
			t.Errorf("ScaleBreakEven(%g) gives ξ_m = %g", xi, got)
		}
	}
	if got := d.ScaleBreakEven(-1).BreakEven(); got < 0 {
		t.Errorf("negative ξ_m clamped, got %g", got)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []DRAM{
		{TechNM: 5, CapacityMB: 1024},
		{TechNM: 500, CapacityMB: 1024},
		{TechNM: 50, CapacityMB: 0},
		{TechNM: 50, CapacityMB: 1024, TransitionJ: -1},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d should be invalid: %+v", i, d)
		}
	}
}

func TestPropertyBreakEvenDimensionallyConsistent(t *testing.T) {
	// ξ_m·α_m must always reproduce the transition energy.
	f := func(capRaw, techRaw uint16) bool {
		d := DRAM{
			TechNM:     20 + float64(techRaw%180),
			CapacityMB: 128 + float64(capRaw%8192),
		}
		return math.Abs(d.BreakEven()*d.StaticPower()-d.TransitionEnergy()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
