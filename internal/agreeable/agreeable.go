// Package agreeable implements the optimal SDEM schemes of §5 of the paper
// for agreeable-deadline task sets (later release ⇒ later-or-equal
// deadline), plus the §7 transition-overhead extension.
//
// Structure (§5.1/§5.2): an optimal schedule partitions the deadline-sorted
// tasks into contiguous blocks (Lemma 4), each block executing inside one
// memory busy interval [s', e']. A dynamic program over prefixes picks the
// partition; a local solver finds each block's optimal busy interval.
//
// Local solver: the paper enumerates (i, j) boundary pairs and runs the
// five-step iterative classification of Algorithm 1. This package exploits
// a strictly stronger observation: once the busy interval [s', e'] is
// fixed, each task independently runs at its window-clamped critical speed
// inside avail_k = min(d_k, e') − max(r_k, s'), and its minimal core
// energy is a convex non-increasing function of avail_k. Since avail_k is
// concave in (s', e'), the total block energy
//
//	E(s', e') = α_m·(e' − s') + Σ_k coreE_k(avail_k)
//
// is jointly convex, and its subgradient has a closed form through the
// critical speeds (block.go). Root finding on that subgradient gives the
// exact optimum that the (i, j)/Algorithm-1 scheme converges to. The
// tests keep the nested golden-section search over E, the literal (i, j)
// enumeration and Algorithm 1 as independent oracles.
package agreeable

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sdem/internal/numeric"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// relTol is the package's relative speed/feasibility tolerance; it matches
// schedule.Tol (1e-9) by value. The block root finding runs on the tighter
// derived scale relTol/1000.
const relTol = 1e-9

// ErrNotAgreeable is returned when the task set violates the
// agreeable-deadline property.
var ErrNotAgreeable = errors.New("agreeable: task set is not agreeable")

// Block describes one scheduling block of the solution: a contiguous run
// of deadline-ordered tasks sharing a single memory busy interval.
type Block struct {
	// From and To are inclusive indices into the deadline-sorted positive
	// workload task list.
	From, To int
	// BusyStart and BusyEnd delimit the block's memory busy interval.
	BusyStart, BusyEnd float64
	// Cost is the block-local objective value used by the DP.
	Cost float64
}

// Solution is an optimal agreeable-deadline schedule.
type Solution struct {
	// Schedule is the constructed schedule over [min release, max
	// deadline].
	Schedule *schedule.Schedule
	// Blocks is the optimal block partition in time order.
	Blocks []Block
	// Energy is the audited system-wide energy of Schedule.
	Energy float64
}

// solver carries the normalized instance.
type solver struct {
	sys   power.System
	tasks []task.Task // deadline-sorted, positive workloads
	zeros task.Set
	start float64 // min release
	end   float64 // max deadline
	// static[k] is the core static power task k pays while it runs: zero
	// in α = 0 mode, and zero in overhead mode when task k's core cannot
	// profitably sleep (its idle tail would be shorter than ξ), so its
	// static power is sunk and it stretches to fill its available window
	// (constrained critical speed semantics of §7).
	static []float64
	// slack is a filled speed at or below which the window of a task
	// paying static power (static[k] > 0) is certainly slack
	// (slackSpeed): slope returns zero there without pricing the power.
	slack float64
	// minAvail[k] is the shortest window task k fits in at s_up.
	minAvail []float64
	// fullPrefix[k] sums the core energies of tasks [0..k) run in their
	// full release-to-deadline windows.
	fullPrefix []float64
	// dynSlope is β·(λ−1), the coefficient of the closed-form slope.
	dynSlope float64
	// sm is the core's unclamped critical speed s_m, derived once.
	sm  float64
	tel *telemetry.Recorder
	// ctx, when non-nil, is polled at DP row boundaries and at the start
	// of every block solve so a caller's deadline budget can abandon an
	// expensive solve cooperatively.
	ctx context.Context
	// The solve's work tallies, reported to tel once by dp: slope
	// evaluations, block solves and DP cells scanned.
	slopeEvals, blockSolves, dpCells int64
}

// newSolver normalizes the instance for the block-local objective of
// system model m: §5.1 α = 0, §5.2 α ≠ 0 with free transitions, or §7
// with break-even times.
func newSolver(tasks task.Set, sys power.System, m power.Model) (*solver, error) {
	if err := tasks.Validate(); err != nil {
		return nil, err
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if !tasks.IsAgreeable() {
		return nil, ErrNotAgreeable
	}
	if !tasks.Feasible(sys.Core.SpeedMax) {
		return nil, fmt.Errorf("agreeable: some task exceeds s_up even at filled speed: %w", schedule.ErrInfeasible)
	}
	s := &solver{sys: sys}
	if m == power.ModelAlphaZero {
		s.sys.Core.Static = 0
	}
	if m != power.ModelOverhead {
		s.sys.Core.BreakEven = 0
		s.sys.Memory.BreakEven = 0
	}
	if len(tasks) == 0 {
		return s, nil
	}
	sorted := tasks.Clone()
	sorted.SortByDeadline()
	s.start, s.end = sorted.Span()
	for _, t := range sorted {
		if numeric.IsZero(t.Workload, 0) {
			s.zeros = append(s.zeros, t)
			continue
		}
		s.tasks = append(s.tasks, t)
	}
	core := s.sys.Core
	s.dynSlope = core.Beta * (core.Lambda - 1)
	s.sm = core.CriticalSpeedRaw()
	s.slack = s.slackSpeed()
	s.static = make([]float64, len(s.tasks))
	s.minAvail = make([]float64, len(s.tasks))
	s.fullPrefix = make([]float64, len(s.tasks)+1)
	horizon := s.end - s.start
	for k, t := range s.tasks {
		s.static[k] = core.Static
		if m == power.ModelOverhead {
			sc := core.ConstrainedCriticalSpeed(s.sm, t.FilledSpeed(), t.Workload, horizon)
			s0 := core.ClampSpeed(s.sm, t.FilledSpeed())
			// ConstrainedCriticalSpeed returns the filled speed when the
			// idle tail left by racing is below the core break-even.
			if sc < s0-(relTol/1000)*s0 {
				s.static[k] = 0
			}
		}
		if core.SpeedMax > 0 {
			// A task whose window is tight to within relTol keeps it.
			s.minAvail[k] = math.Min(t.Workload/core.SpeedMax, t.Window())
		}
		e, _ := s.coreEnergy(k, t.Window())
		s.fullPrefix[k+1] = s.fullPrefix[k] + e
	}
	return s, nil
}

// slackMargin is the relative distance below s_m of the slack
// threshold slackSpeed, and the margin by which the power there must
// clear α: ten orders of magnitude above the relative rounding error of
// s_m's root and of the power, so no speed at or below the threshold can
// round past α, and still close enough to s_m that almost every slack
// window is caught.
const slackMargin = 1000 * relTol

// slackSpeed returns the filled speed at or below which slope's exact
// test β(λ−1)·f^λ ≤ α certainly holds for a task paying the core's
// static power α: s_m·(1 − slackMargin), where the power is
// (1 − slackMargin)^λ·α. It returns 0, which no positive speed is at or
// below, when the core has no static power or the power at that speed is
// not certified below α(1 − slackMargin) (an overflowed or non-finite
// s_m, or a power so small that its rounding is no longer relative).
func (s *solver) slackSpeed() float64 {
	core := s.sys.Core
	f := s.sm * (1 - slackMargin)
	pow := core.PowLambda(f)
	if !(core.Static > 0) || !(pow >= 0x1p-1000) || s.dynSlope*pow > core.Static*(1-slackMargin) {
		return 0
	}
	return f
}

// coreEnergy returns the minimal core energy of task k given an available
// execution window of length avail, together with the chosen speed. It is
// +Inf when avail cannot accommodate the task even at s_up.
func (s *solver) coreEnergy(k int, avail float64) (float64, float64) {
	t := s.tasks[k]
	w := t.Workload
	if avail <= 0 {
		return math.Inf(1), 0
	}
	filled := w / avail
	if s.sys.Core.SpeedMax > 0 {
		if filled > s.sys.Core.SpeedMax*(1+relTol) {
			return math.Inf(1), 0
		}
		// Clamp boundary noise so an optimum sitting exactly on the cap
		// evaluates to a finite, validator-clean speed.
		if filled > s.sys.Core.SpeedMax {
			filled = s.sys.Core.SpeedMax
		}
	}
	// With no static power to pay (α = 0, or a §7 core that cannot sleep)
	// only the dynamic term matters and stretching is optimal.
	speed := filled
	if s.static[k] > 0 {
		speed = s.sys.Core.ClampSpeed(s.sm, filled)
	}
	exec := w / speed
	e := s.sys.Core.Dynamic(speed)*exec + s.static[k]*exec
	return e, speed
}

// boundSlack is the relative margin by which a block's lower bound must
// exceed the DP row's best value before dp skips the block: far above
// the rounding of the bound's and the block cost's sums, far below any
// cost gap the block solver's relTol/1000 root finding resolves.
const boundSlack = 1e-12

// blockBound is an O(1) lower bound on the cost of block [from..to]:
// each task's core energy is at least its full-window energy, and the
// busy interval starts before d_from and ends after r_to.
func (s *solver) blockBound(from, to int) float64 {
	gap := math.Max(0, s.tasks[to].Release-s.tasks[from].Deadline)
	return s.fullPrefix[to+1] - s.fullPrefix[from] + s.sys.Memory.Static*gap
}

// dp runs the prefix dynamic program of §5.1.2/§5.2.2 and returns the
// optimal block partition. blockExtra is added per block (α_m·ξ_m in the
// §7 DP).
//
// Each row q opens with the singleton block [q−1, q−1]: its value U is
// the sum the scan's last cell computes, so no row minimum exceeds it.
// The scan then skips every block whose lower bound (blockBound), less
// boundSlack, exceeds min(opt[q], U): such a block can neither be nor tie
// the row's minimum, so the partition and every bit of its cost are
// those of the DP that solves all n(n+1)/2 blocks.
func (s *solver) dp(blockExtra float64) []Block {
	n := len(s.tasks)
	if n == 0 {
		return nil
	}
	defer s.reportWork()
	// Memoized block costs, row-major by (first, last) task.
	blocks := make([]Block, n*n)
	for i := range blocks {
		blocks[i].Cost = math.NaN()
	}
	get := func(i, j int) Block {
		if b := &blocks[i*n+j]; math.IsNaN(b.Cost) {
			*b = s.blockSolve(i, j)
		}
		return blocks[i*n+j]
	}
	opt := make([]float64, n+1)
	choice := make([]int, n+1)
	for q := 1; q <= n; q++ {
		// Cooperative cancellation checkpoint: one poll per DP row, plus
		// one per block solve (blockSolve), bounds the work after
		// cancellation to a single block solve and a row of cheap memo
		// lookups.
		if s.ctx != nil && s.ctx.Err() != nil {
			return nil // solve surfaces the context error
		}
		best := opt[q-1] + get(q-1, q-1).Cost + blockExtra // U
		opt[q] = math.Inf(1)
		for p := 0; p < q; p++ {
			s.dpCells++
			if lb := opt[p] + blockExtra + s.blockBound(p, q-1); lb-boundSlack*math.Abs(lb) > best {
				continue
			}
			if c := opt[p] + get(p, q-1).Cost + blockExtra; c < opt[q] {
				opt[q] = c
				choice[q] = p
				best = math.Min(best, c)
			}
		}
	}
	var out []Block
	for q := n; q > 0; q = choice[q] {
		out = append(out, get(choice[q], q-1))
	}
	// Reverse into time order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// reportWork adds the solve's work tallies to the recorder, one Count
// per counter. A counter with nothing to add stays out of the dump.
func (s *solver) reportWork() {
	for _, c := range [...]struct {
		name string
		n    int64
	}{
		{"sdem.solver.agr.slope_evals", s.slopeEvals},
		{"sdem.solver.agr.block_solves", s.blockSolves},
		{"sdem.solver.agr.dp_cells", s.dpCells},
	} {
		if c.n > 0 {
			s.tel.Count(c.name, c.n)
		}
	}
}

// buildSchedule lays out the blocks: within a block each task starts at
// the beginning of its available window and runs at its chosen speed.
func (s *solver) buildSchedule(blocks []Block) *schedule.Schedule {
	sched := schedule.New(len(s.tasks), s.start, s.end)
	for _, b := range blocks {
		for k := b.From; k <= b.To; k++ {
			t := s.tasks[k]
			begin := math.Max(t.Release, b.BusyStart)
			avail := math.Min(t.Deadline, b.BusyEnd) - begin
			_, speed := s.coreEnergy(k, avail)
			if speed <= 0 {
				speed = t.Workload / avail
			}
			sched.Add(k, schedule.Segment{
				TaskID: t.ID,
				Start:  begin,
				End:    begin + t.Workload/speed,
				Speed:  speed,
			})
		}
	}
	sched.Normalize()
	return sched
}

// schemes labels each system model's solves in telemetry.
var schemes = [...]string{
	power.ModelAlphaZero: "alpha_zero",
	power.ModelStatic:    "static",
	power.ModelOverhead:  "overhead",
}

// solve runs the scheme of system model m; ctx, when non-nil, is polled
// by the DP.
func solve(ctx context.Context, m power.Model, tasks task.Set, sys power.System, tel *telemetry.Recorder) (*Solution, error) {
	s, err := newSolver(tasks, sys, m)
	if err != nil {
		return nil, err
	}
	s.tel, s.ctx = tel, ctx
	// The §7 DP charges one memory transition α_m·ξ_m per block.
	var blockExtra float64
	if m == power.ModelOverhead {
		blockExtra = sys.Memory.TransitionEnergy()
	}
	blocks := s.dp(blockExtra)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("agreeable: solve cancelled: %w", err)
		}
	}
	sched, energy, fellBack := s.place(m, blocks)
	if fellBack {
		tel.Count("sdem.solver.agr.fallback_used", 1)
	}
	if tel != nil {
		tel.CountL("sdem.solver.agr.solves", "scheme="+schemes[m], 1)
		tel.Count("sdem.solver.agr.blocks", int64(len(blocks)))
		tel.Instant("agr solve "+schemes[m], "solver", s.start, 0,
			telemetry.Int("blocks", int64(len(blocks))),
			telemetry.Int("tasks", int64(len(s.tasks))),
			telemetry.Num("energy_j", energy))
	}
	return &Solution{
		Schedule: sched,
		Blocks:   blocks,
		Energy:   energy,
	}, nil
}

// place lays out the DP's blocks and audits the schedule. In the §7
// model the block objective values memory compression as if the freed
// time always slept, but gaps below ξ_m save nothing (Table 3's Δ = 0
// row), so place also audits the no-compression alternative — every task
// at its constrained natural speed from its window start — and keeps the
// cheaper schedule (fellBack). Blocks still report the DP's partition.
func (s *solver) place(m power.Model, blocks []Block) (sched *schedule.Schedule, energy float64, fellBack bool) {
	sched = s.buildSchedule(blocks)
	energy = schedule.Audit(sched, s.sys).Total()
	if m == power.ModelOverhead {
		if fb := s.buildNaturalFallback(); fb != nil {
			if e := schedule.Audit(fb, s.sys).Total(); e < energy {
				return fb, e, true
			}
		}
	}
	return sched, energy, false
}

// buildNaturalFallback places every task at its window start running at
// the speed coreEnergy would choose for the full window (the constrained
// critical speed in overhead mode).
func (s *solver) buildNaturalFallback() *schedule.Schedule {
	sched := schedule.New(len(s.tasks), s.start, s.end)
	for k, t := range s.tasks {
		_, speed := s.coreEnergy(k, t.Window())
		if speed <= 0 {
			return nil
		}
		sched.Add(k, schedule.Segment{
			TaskID: t.ID,
			Start:  t.Release,
			End:    t.Release + t.Workload/speed,
			Speed:  speed,
		})
	}
	sched.Normalize()
	return sched
}

// SolveCtx computes the optimal agreeable-deadline schedule with the
// scheme of the system model of Table 1 (power.System.Model):
//
//   - §5.1, α = 0 with free transitions;
//   - §5.2, α ≠ 0 with free transitions;
//   - §7, any break-even time set: the block-local solver keeps the §5
//     structure with constrained critical speeds, and the DP charges one
//     memory transition α_m·ξ_m per block.
//
// Each returned schedule is optimal for its model. The DP polls ctx at
// row boundaries and abandons the solve with ctx's error once it is
// done. A nil ctx never cancels; a nil tel is the uninstrumented path.
func SolveCtx(ctx context.Context, tasks task.Set, sys power.System, tel *telemetry.Recorder) (*Solution, error) {
	return solve(ctx, sys.Model(), tasks, sys, tel)
}
