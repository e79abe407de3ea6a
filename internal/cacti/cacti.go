// Package cacti is a stand-in for the CACTI memory modelling tool the
// paper uses to derive DRAM static power (§8.1.3): a parametric leakage
// model mapping technology node and capacity to the memory static power
// α_m and break-even time ξ_m.
//
// The model is calibrated so that a 50 nm DRAM sweeps α_m across the
// paper's Table 4 grid (1–8 W) as capacity grows from 512 MB to 4 GiB,
// following the first-order physics CACTI encodes: leakage scales
// linearly with the number of cells and grows as feature size shrinks
// (sub-threshold leakage rises steeply below ~70 nm).
package cacti

import (
	"fmt"
	"math"

	"sdem/internal/numeric"
)

// DRAM describes one main-memory configuration.
type DRAM struct {
	// TechNM is the process feature size in nanometres (e.g. 50).
	TechNM float64
	// CapacityMB is the total capacity in mebibytes.
	CapacityMB float64
	// TransitionJ is the energy of one full sleep/wake transition pair in
	// joules. Zero selects the model's default, which scales with
	// capacity (more banks to drain and restore).
	TransitionJ float64
}

// refTech and refLeakWPerMB calibrate the model: at 50 nm, leakage is
// about 2 mW per MB, putting a 2 GiB part at ≈4 W — the paper's default
// α_m.
const (
	refTech       = 50.0
	refLeakWPerMB = 2.0e-3
)

// Validate reports whether the configuration is physically meaningful.
func (d DRAM) Validate() error {
	if d.TechNM < 10 || d.TechNM > 250 {
		return fmt.Errorf("cacti: technology node %g nm outside the modelled 10–250 nm range", d.TechNM)
	}
	if d.CapacityMB <= 0 {
		return fmt.Errorf("cacti: capacity %g MB must be positive", d.CapacityMB)
	}
	if d.TransitionJ < 0 {
		return fmt.Errorf("cacti: negative transition energy %g", d.TransitionJ)
	}
	return nil
}

// StaticPower returns the leakage power α_m in watts: linear in cell
// count, scaled by a sub-threshold factor that grows quadratically as the
// node shrinks below the 50 nm reference (Wilton–Jouppi-style first-order
// scaling).
func (d DRAM) StaticPower() float64 {
	scale := refTech / d.TechNM
	return refLeakWPerMB * d.CapacityMB * scale * scale
}

// TransitionEnergy returns the energy of one sleep/wake cycle in joules.
// The default charges 60 µJ per MB — dominated by restoring bank state —
// which puts a 2 GiB part at ≈0.123 J, i.e. a ≈31 ms break-even at its
// own leakage, inside the paper's 15–70 ms grid.
func (d DRAM) TransitionEnergy() float64 {
	if d.TransitionJ > 0 {
		return d.TransitionJ
	}
	return 60e-6 * d.CapacityMB
}

// BreakEven returns ξ_m = transition energy / α_m in seconds.
func (d DRAM) BreakEven() float64 {
	am := d.StaticPower()
	if numeric.IsZero(am, 0) {
		return 0
	}
	return d.TransitionEnergy() / am
}

// ForStaticPower returns the 50 nm capacity whose leakage equals the
// requested α_m — the inverse used to realize the Table 4 sweep points.
func ForStaticPower(alphaM float64) (DRAM, error) {
	if alphaM <= 0 {
		return DRAM{}, fmt.Errorf("cacti: α_m %g must be positive", alphaM)
	}
	return DRAM{TechNM: refTech, CapacityMB: alphaM / refLeakWPerMB}, nil
}

// ScaleBreakEven returns a copy whose transition energy is adjusted so
// that the break-even time equals xi seconds — how the experiments pin
// ξ_m to the Table 4 grid independently of α_m.
func (d DRAM) ScaleBreakEven(xi float64) DRAM {
	if xi < 0 {
		xi = 0
	}
	d.TransitionJ = math.Max(xi*d.StaticPower(), 1e-18)
	return d
}
