// Package power defines the power, speed and energy model used throughout
// the SDEM library.
//
// The model follows Fu, Chau, Li and Xue, "Race to idle or not: balancing
// the memory sleep time with DVS for energy minimization" (DATE 2015 /
// journal version 2017), section 3:
//
//	P(s) = α + β·s^λ            core power while executing at speed s
//	α                            core static power while idle-active
//	α_m                          memory static power while active
//	ξ, ξ_m                       core / memory break-even times
//
// All quantities are SI: seconds, hertz (cycles per second), watts, joules.
// Helper constructors convert from the paper's mW/MHz³ convention.
//
// Core.PowLambda (x^λ) and Core.PowOneMinusLambda (x^(1−λ)) are the one
// place the power law is evaluated: Dynamic, both offline solvers'
// closed forms, the partition objective and, through Dynamic, the
// Auditor and the streaming meter all go through them. For the CMOS
// cube λ = 3 of both presets they are plain products that carry
// math.Pow's exact bits; the 1/λ roots (critical speeds, stationary
// busy lengths) stay on math.Pow.
package power

import (
	"errors"
	"fmt"
	"math"

	"sdem/internal/numeric"
)

// Core describes one homogeneous DVS core.
type Core struct {
	// Static is the static (leakage) power α in watts. The core draws
	// Static whenever it is in the active state, even if idle. A value of
	// zero selects the paper's "α = 0" model in which idle cores are free
	// and never need to sleep.
	Static float64
	// Beta is the dynamic power coefficient β in W/Hz^λ, so that the
	// dynamic power at speed s (Hz) is Beta·s^Lambda watts.
	Beta float64
	// Lambda is the dynamic power exponent λ > 1 (3 for CMOS).
	Lambda float64
	// SpeedMax is the maximum speed s_up in Hz. Zero means unbounded.
	SpeedMax float64
	// SpeedMin is an optional minimum operating speed in Hz used only by
	// simulators that model real frequency floors. The scheduling theory
	// in the paper assumes speeds continuous in (0, s_up]; leave zero to
	// match it.
	SpeedMin float64
	// BreakEven is the core's mode-transition break-even time ξ in
	// seconds: sleeping is profitable only for idle gaps longer than ξ,
	// and one full sleep/wake cycle costs Static·BreakEven joules.
	BreakEven float64
	// SwitchEnergy is the energy in joules of one DVS frequency change
	// (§3 removes the free-voltage-adjustment assumption in the
	// evaluation). The audit charges it whenever a core's consecutive
	// execution segments run at different speeds. Zero means free
	// switching, the model of the theoretical sections.
	SwitchEnergy float64
}

// Memory describes the shared main memory.
type Memory struct {
	// Static is the memory static (leakage) power α_m in watts, drawn
	// whenever the memory is active.
	Static float64
	// BreakEven is the memory transition break-even time ξ_m in seconds;
	// one full sleep/wake cycle costs Static·BreakEven joules.
	BreakEven float64
}

// System bundles the core model, core count and memory model.
type System struct {
	Core   Core
	Memory Memory
	// Cores is the number of physical cores; the unbounded-core
	// algorithms ignore it, the bounded-core solvers and the simulator
	// honour it.
	Cores int
}

// Model classifies a system into the system-model columns of Table 1,
// the counterpart of task.Model for the rows.
type Model int

const (
	// ModelAlphaZero is negligible core static power with free
	// transitions (§4.1, §5.1).
	ModelAlphaZero Model = iota
	// ModelStatic is non-negligible core static power α with free
	// transitions (§4.2, §5.2).
	ModelStatic
	// ModelOverhead is any non-zero break-even time ξ or ξ_m (§7).
	ModelOverhead
)

// Model returns the Table 1 column the system falls in: transition
// overhead whenever either break-even time is set, otherwise α ≠ 0 or
// α = 0 by the core's static power.
func (s System) Model() Model {
	switch {
	case s.Core.BreakEven > 0 || s.Memory.BreakEven > 0:
		return ModelOverhead
	case s.Core.Static > 0:
		return ModelStatic
	default:
		return ModelAlphaZero
	}
}

// MHz converts a frequency given in MHz to Hz.
func MHz(f float64) float64 { return f * 1e6 }

// GHz converts a frequency given in GHz to Hz.
func GHz(f float64) float64 { return f * 1e9 }

// Milliseconds converts a duration given in ms to seconds.
func Milliseconds(t float64) float64 { return t * 1e-3 }

// BetaFromMilliwattPerMHzPow converts a dynamic-power coefficient expressed
// in mW/MHz^λ (the convention of the paper's §8.1.3) into W/Hz^λ.
func BetaFromMilliwattPerMHzPow(beta float64, lambda float64) float64 {
	// 1 mW = 1e-3 W; 1 MHz^λ = (1e6)^λ Hz^λ.
	return beta * 1e-3 / math.Pow(1e6, lambda)
}

// CortexA57 returns the core model of §8.1.3: β = 2.53e-7 mW/MHz³,
// α = 310 mW, λ = 3, f ∈ [700, 1900] MHz.
func CortexA57() Core {
	return Core{
		Static:   0.310,
		Beta:     BetaFromMilliwattPerMHzPow(2.53e-7, 3),
		Lambda:   3,
		SpeedMax: MHz(1900),
		SpeedMin: MHz(700),
	}
}

// CortexA7 returns a LITTLE-core companion model for heterogeneous
// experiments: roughly 60 mW static, ~0.4 W dynamic at its 1.3 GHz peak
// (λ = 3), the efficiency-cluster counterpart of the A57 preset.
func CortexA7() Core {
	return Core{
		Static:   0.060,
		Beta:     1.8e-28,
		Lambda:   3,
		SpeedMax: MHz(1300),
		SpeedMin: MHz(200),
	}
}

// DefaultSystem returns the paper's default experimental platform: eight
// Cortex-A57 cores sharing a DRAM with α_m = 4 W and ξ_m = 40 ms
// (the starred defaults of Table 4).
func DefaultSystem() System {
	return System{
		Core:   CortexA57(),
		Memory: Memory{Static: 4, BreakEven: Milliseconds(40)},
		Cores:  8,
	}
}

// Dynamic returns the dynamic power β·s^λ in watts at speed s.
func (c Core) Dynamic(s float64) float64 {
	if s <= 0 {
		return 0
	}
	return c.Beta * c.PowLambda(s)
}

// isCube reports whether the core follows the cube law λ = 3.
//
// For an integer exponent math.Pow multiplies the Frexp mantissa by
// repeated squaring and rescales by exact powers of two, so in the
// normal range math.Pow(x, 3) is (x·x)·x and math.Pow(x, −2) is
// 1/(x·x), bit for bit; at ±0, ±Inf and NaN the products agree with
// Pow's special cases too. No other exponent has such an identity.
func (c Core) isCube() bool {
	//lint:allow floatcmp: exact-integer dispatch; only λ = 3 exactly has the bit-identical product form
	return c.Lambda == 3
}

// PowLambda returns x^λ with math.Pow's bits: (x·x)·x for λ = 3,
// math.Pow otherwise.
func (c Core) PowLambda(x float64) float64 {
	if c.isCube() {
		// The conversion keeps the product rounded on its own, so no
		// caller's addition fuses with it.
		return float64(x * x * x)
	}
	return pow(x, c.Lambda)
}

// PowOneMinusLambda returns x^(1−λ) with math.Pow's bits: 1/(x·x) for
// λ = 3, math.Pow otherwise.
func (c Core) PowOneMinusLambda(x float64) float64 {
	if c.isCube() {
		return 1 / (x * x)
	}
	return pow(x, 1-c.Lambda)
}

// pow is math.Pow kept out of line: inlined, its body would push
// PowLambda and PowOneMinusLambda past the inliner's budget, and the
// cube-law fast path must inline into the solvers' loops.
//
//go:noinline
func pow(x, y float64) float64 { return math.Pow(x, y) }

// Power returns the total active power α + β·s^λ at speed s.
func (c Core) Power(s float64) float64 { return c.Static + c.Dynamic(s) }

// EnergyFor returns the energy to execute w cycles at constant speed s:
// (α + β·s^λ)·w/s. It returns +Inf for non-positive s and w > 0.
func (c Core) EnergyFor(w, s float64) float64 {
	if numeric.IsZero(w, 0) {
		return 0
	}
	if s <= 0 {
		return math.Inf(1)
	}
	return c.Power(s) * w / s
}

// CriticalSpeedRaw returns s_m = (α/(β(λ−1)))^(1/λ), the unconstrained
// minimizer of per-cycle core energy (α + β·s^λ)/s. It is zero when the
// core has no static power.
func (c Core) CriticalSpeedRaw() float64 {
	if numeric.IsZero(c.Static, 0) {
		return 0
	}
	return math.Pow(c.Static/(c.Beta*(c.Lambda-1)), 1/c.Lambda)
}

// MemoryCriticalSpeedRaw returns s_cm = ((α+α_m)/(β(λ−1)))^(1/λ), the
// unconstrained minimizer of per-cycle energy of one core plus the memory
// (§5.2).
func (c Core) MemoryCriticalSpeedRaw(mem Memory) float64 {
	return math.Pow((c.Static+mem.Static)/(c.Beta*(c.Lambda-1)), 1/c.Lambda)
}

// ClampSpeed restricts s to the feasible band: at least filled (the minimum
// speed that meets the deadline) and at most SpeedMax (when set).
func (c Core) ClampSpeed(s, filled float64) float64 {
	if s < filled {
		s = filled
	}
	if c.SpeedMax > 0 && s > c.SpeedMax {
		s = c.SpeedMax
	}
	return s
}

// unboundedSpeed stands in for s_up on an uncapped core (SpeedMax = 0):
// finite, so segment arithmetic stays finite, and far above any speed a
// task of this model needs, so racing at it is effectively instant.
const unboundedSpeed = 1e12

// SpeedCeiling returns the fastest speed a job may be commanded to: s_up,
// or the effectively unbounded sentinel on an uncapped core.
func (c Core) SpeedCeiling() float64 {
	if c.SpeedMax > 0 {
		return c.SpeedMax
	}
	return unboundedSpeed
}

// CriticalSpeed returns the per-task critical speed of §4.2,
// s_0 = min(max(s_m, s_f), s_up), where s_f is the task's filled speed.
func (c Core) CriticalSpeed(filled float64) float64 {
	return c.ClampSpeed(c.CriticalSpeedRaw(), filled)
}

// MemoryCriticalSpeed returns the memory-associated critical speed of §5.2,
// s_1 = min(max(s_cm, s_f), s_up).
func (c Core) MemoryCriticalSpeed(mem Memory, filled float64) float64 {
	return c.ClampSpeed(c.MemoryCriticalSpeedRaw(mem), filled)
}

// ConstrainedCriticalSpeed returns the constrained critical speed s_c of §7
// for a task with filled speed filled and workload w inside a maximal
// interval of length horizon: s_c equals the ordinary critical speed when
// running at it leaves an idle tail of at least the core break-even time ξ
// (so the core can actually sleep), and the filled speed otherwise. sm is
// the core's CriticalSpeedRaw, a constant of the core that callers
// pricing many tasks derive once.
func (c Core) ConstrainedCriticalSpeed(sm, filled, w, horizon float64) float64 {
	s := sm
	if c.SpeedMax > 0 && s > c.SpeedMax {
		s = c.SpeedMax
	}
	if s > 0 && horizon-w/s >= c.BreakEven {
		return c.ClampSpeed(sm, filled)
	}
	return c.ClampSpeed(filled, filled)
}

// TransitionEnergy returns the energy cost of one full sleep/wake cycle of
// the core, α·ξ.
func (c Core) TransitionEnergy() float64 { return c.Static * c.BreakEven }

// TransitionEnergy returns the energy cost of one full sleep/wake cycle of
// the memory, α_m·ξ_m.
func (m Memory) TransitionEnergy() float64 { return m.Static * m.BreakEven }

// Validate reports whether the core model is physically meaningful.
func (c Core) Validate() error {
	switch {
	case c.Beta <= 0:
		return fmt.Errorf("power: Beta must be positive, got %g", c.Beta)
	case c.Lambda <= 1:
		return fmt.Errorf("power: Lambda must exceed 1, got %g", c.Lambda)
	case c.Static < 0:
		return fmt.Errorf("power: Static must be non-negative, got %g", c.Static)
	case c.SpeedMax < 0 || c.SpeedMin < 0:
		return errors.New("power: speeds must be non-negative")
	case c.SpeedMax > 0 && c.SpeedMin > c.SpeedMax:
		return fmt.Errorf("power: SpeedMin %g exceeds SpeedMax %g", c.SpeedMin, c.SpeedMax)
	case c.BreakEven < 0:
		return fmt.Errorf("power: BreakEven must be non-negative, got %g", c.BreakEven)
	case c.SwitchEnergy < 0:
		return fmt.Errorf("power: SwitchEnergy must be non-negative, got %g", c.SwitchEnergy)
	}
	return nil
}

// Validate reports whether the memory model is physically meaningful.
func (m Memory) Validate() error {
	switch {
	case m.Static < 0:
		return fmt.Errorf("power: memory Static must be non-negative, got %g", m.Static)
	case m.BreakEven < 0:
		return fmt.Errorf("power: memory BreakEven must be non-negative, got %g", m.BreakEven)
	}
	return nil
}

// Validate reports whether the whole system model is meaningful.
func (s System) Validate() error {
	if err := s.Core.Validate(); err != nil {
		return err
	}
	if err := s.Memory.Validate(); err != nil {
		return err
	}
	if s.Cores < 0 {
		return fmt.Errorf("power: Cores must be non-negative, got %d", s.Cores)
	}
	return nil
}
