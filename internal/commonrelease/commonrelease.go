// Package commonrelease implements the optimal SDEM schemes of §4 of the
// paper for tasks sharing a common release time, and their §7 extension to
// non-negligible mode-transition overhead.
//
// Both §4.1 (α = 0) and §4.2 (α ≠ 0) reduce to the same case structure:
// sort tasks by their natural completion time c_i (the completion when the
// task runs at its individually optimal speed — the filled speed for
// α = 0, the critical speed s_0 for α ≠ 0) and choose the memory busy
// length L. Tasks whose natural completion exceeds L accelerate to finish
// exactly at L ("aligned"); the others keep their natural speed. Within
// Case i (aligned set {T_i..T_n}, L ∈ [c_{i−1}, c_i]) the energy
//
//	E_i(L) = (k·α + α_m)·L + β·S_i·L^{1−λ} + Σ_{j<i}(β·w_j^λ·c_j^{1−λ} + α·c_j)
//
// (k = n−i+1 aligned tasks, S_i = Σ_{j≥i} w_j^λ) is convex with the
// closed-form minimizer of Eq. (8); the global optimum is the best case
// (Theorems 2 and 3).
package commonrelease

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sdem/internal/numeric"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// relTol is the package's relative speed-feasibility tolerance; it matches
// schedule.Tol (1e-9) by value.
const relTol = 1e-9

// Solution is an optimal common-release schedule plus its audit summary.
type Solution struct {
	// Schedule is the constructed schedule (horizon [r, r+d_max]).
	Schedule *schedule.Schedule
	// BusyLen is the memory busy length L: all execution happens in
	// [r, r+BusyLen].
	BusyLen float64
	// Delta is the memory sleep time within the horizon, d_max − L.
	Delta float64
	// Case is the winning 1-based case index (n−Case+1 aligned tasks),
	// or 0 when no task has positive workload.
	Case int
	// Energy is the audited system-wide energy of Schedule.
	Energy float64
}

// ErrNotCommonRelease is returned when the task set has differing release
// times.
var ErrNotCommonRelease = errors.New("commonrelease: tasks do not share a release time")

// instance is the normalized problem: release shifted to 0, zero-workload
// tasks dropped, tasks sorted by natural completion.
//
// All of its slices are reset-and-reused by normalizeInto, so a retained
// instance (see Solver) re-solves without allocating; the one-shot Solve
// builds a fresh instance per call.
type instance struct {
	sys     power.System
	release float64     // original common release time
	horizon float64     // d_max relative to release
	tasks   []task.Task // sorted by natural completion, times relative to release
	c       []float64   // natural completion times, ascending
	pos     []int       // input position of each tasks[i] (zeros excluded)
	zeros   task.Set    // zero-workload tasks (scheduled nowhere)
	tel     *telemetry.Recorder

	// Case tables (prepTables), four views of one retained backing.
	tables                            []float64
	sufPow, sufMaxW, prefDyn, prefFix []float64

	// Overhead-scan scratch (overhead.go), retained across solves.
	bounds []boundedPiece // each scan piece's bound and L*, in breakpoint order

	// s_m memo (criticalSpeed): the core's CriticalSpeedRaw, keyed on the
	// bits of its (α, β, λ).
	smKey [3]uint64
	sm    float64
	smOK  bool

	// Per-scan work tallies of the overhead scan, flushed into tel once
	// per scan so the probes never touch the recorder's lock.
	evals, priced int64

	// Normalization scratch: the stable completion sort permutes idx and
	// then the alt buffers, which swap with the primary ones each solve.
	idx  []int
	srt  completionSort
	altT []task.Task
	altC []float64
	altP []int
	seen map[int]bool
}

// record charges one completed solve into the recorder: a per-scheme
// counter plus a trace instant at the (virtual) release time carrying the
// chosen case structure.
func (in *instance) record(scheme string, sol *Solution) {
	if in.tel == nil {
		return
	}
	in.tel.CountL("sdem.solver.cr.solves", "scheme="+scheme, 1)
	in.tel.Count("sdem.solver.cr.tasks", int64(len(in.tasks)))
	in.tel.Instant("cr solve "+scheme, "solver", in.release, 0,
		telemetry.Int("case", int64(sol.Case)),
		telemetry.Num("busy_len", sol.BusyLen),
		telemetry.Num("delta", sol.Delta),
		telemetry.Num("energy_j", sol.Energy))
}

// completionSort stably sorts an index permutation by ascending natural
// completion. It lives in the instance, so sort.Stable(&in.srt) boxes a
// pointer to retained memory instead of moving a fresh header to the
// heap per solve.
type completionSort struct {
	idx []int
	c   []float64
}

func (s *completionSort) Len() int           { return len(s.idx) }
func (s *completionSort) Less(a, b int) bool { return s.c[s.idx[a]] < s.c[s.idx[b]] }
func (s *completionSort) Swap(a, b int)      { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// validate mirrors task.Set.Validate through the instance's retained
// duplicate-ID map so re-solving does not allocate. Error behaviour is
// identical: per-task validation first, then duplicate detection in input
// order.
func (in *instance) validate(tasks task.Set) error {
	if in.seen == nil {
		//lint:allow hotalloc: the duplicate-ID map is allocated once per instance and cleared per solve
		in.seen = make(map[int]bool, len(tasks))
	}
	clear(in.seen)
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return err
		}
		if in.seen[t.ID] {
			return fmt.Errorf("duplicate task ID %d", t.ID)
		}
		in.seen[t.ID] = true
	}
	return nil
}

// naturalSpeed is the task's individually optimal ("natural") speed under
// system model m: the filled speed for §4.1, the critical speed s_0 for
// §4.2, and for §7 the horizon-constrained critical speed s_c, or the
// filled speed on a leak-free core, which never benefits from finishing
// early. horizon is the §7 maximal interval max_j (d_j − r_j) and sm the
// core's CriticalSpeedRaw, both constants of the instance that callers
// derive once per solve rather than once per task.
func naturalSpeed(t task.Task, sys power.System, m power.Model, horizon, sm float64) float64 {
	switch {
	case m == power.ModelStatic:
		return sys.Core.ClampSpeed(sm, t.FilledSpeed())
	case m == power.ModelOverhead && !numeric.IsZero(sys.Core.Static, 0):
		return sys.Core.ConstrainedCriticalSpeed(sm, t.FilledSpeed(), t.Workload, horizon)
	}
	return t.FilledSpeed()
}

// criticalSpeed returns the core's CriticalSpeedRaw s_m, derived once
// per core model: a retained instance keeps the last core's s_m keyed on
// the bits of the (α, β, λ) it depends on, so re-planning on one
// platform takes the root once, and a different core re-derives it.
func (in *instance) criticalSpeed(c power.Core) float64 {
	key := [3]uint64{math.Float64bits(c.Static), math.Float64bits(c.Beta), math.Float64bits(c.Lambda)}
	if !in.smOK || key != in.smKey {
		in.smKey, in.sm, in.smOK = key, c.CriticalSpeedRaw(), true
	}
	return in.sm
}

// normalizeInto validates the input and fills the instance for the
// scheme of system model m: release shifted to 0, zero-workload tasks
// set aside, tasks sorted by natural completion. Every slice is reset and
// refilled in place, so a retained instance re-solves allocation-free
// once its buffers reach the high-water instance size.
//
//sdem:hotpath
func (in *instance) normalizeInto(tasks task.Set, sys power.System, m power.Model, tel *telemetry.Recorder) error {
	if err := in.validate(tasks); err != nil {
		return err
	}
	if err := sys.Validate(); err != nil {
		return err
	}
	in.sys = sys
	if m != power.ModelOverhead {
		// The audit must not charge transitions in the §4 models, nor
		// core static power in the α = 0 model.
		in.sys.Core.BreakEven, in.sys.Memory.BreakEven = 0, 0
		if m == power.ModelAlphaZero {
			in.sys.Core.Static = 0
		}
	}
	in.tel = tel
	in.release, in.horizon = 0, 0
	in.tasks, in.c, in.pos = in.tasks[:0], in.c[:0], in.pos[:0]
	in.zeros = in.zeros[:0]
	if len(tasks) == 0 {
		return nil
	}
	// Pre-size every backing in one shot: a fresh instance would otherwise
	// pay O(log n) geometric-growth reallocations per slice below, while a
	// reused one (cap already at the high-water size) allocates nothing.
	if n := len(tasks); cap(in.tasks) < n {
		in.tasks = make(task.Set, 0, n)
		in.pos = make([]int, 0, n)
		in.c = make([]float64, 0, n)
		in.idx = make([]int, 0, n)
		in.altT = make(task.Set, 0, n)
		in.altC = make([]float64, 0, n)
		in.altP = make([]int, 0, n)
	}
	if !tasks.IsCommonRelease() {
		return ErrNotCommonRelease
	}
	if !tasks.Feasible(sys.Core.SpeedMax) {
		return fmt.Errorf("commonrelease: some task exceeds s_up even at filled speed: %w", schedule.ErrInfeasible)
	}
	release := tasks[0].Release
	in.release = release
	for i, t := range tasks {
		t.Release -= release
		t.Deadline -= release
		if numeric.IsZero(t.Workload, 0) {
			in.zeros = append(in.zeros, t)
			continue
		}
		in.tasks = append(in.tasks, t)
		in.pos = append(in.pos, i)
		in.horizon = math.Max(in.horizon, t.Deadline)
	}
	in.c = in.c[:0]
	horizon0, sm := overheadHorizon(tasks), in.criticalSpeed(sys.Core)
	for _, t := range in.tasks {
		s := naturalSpeed(t, sys, m, horizon0, sm)
		if m == power.ModelStatic && s <= t.FilledSpeed()*(1+relTol) {
			tel.Count("sdem.solver.cr.critical_clamps", 1)
		}
		if s <= 0 || math.IsInf(s, 0) {
			return fmt.Errorf("commonrelease: task %d has invalid natural speed %g: %w", t.ID, s, schedule.ErrInfeasible)
		}
		in.c = append(in.c, t.Workload/s)
	}
	// Sort tasks and completions together, ascending by completion.
	in.idx = in.idx[:0]
	for i := range in.tasks {
		in.idx = append(in.idx, i)
	}
	in.srt = completionSort{idx: in.idx, c: in.c}
	sort.Stable(&in.srt)
	ts, cs, ps := in.altT[:0], in.altC[:0], in.altP[:0]
	for _, j := range in.idx {
		//lint:allow hotalloc: appends into the instance's reused alt backings, swapped with the primaries below
		ts = append(ts, in.tasks[j])
		//lint:allow hotalloc: see above
		cs = append(cs, in.c[j])
		//lint:allow hotalloc: see above
		ps = append(ps, in.pos[j])
	}
	in.altT, in.altC, in.altP = in.tasks[:0], in.c[:0], in.pos[:0]
	in.tasks, in.c, in.pos = ts, cs, ps
	return nil
}

// alignedEnd is the Tol alignment rule: under busy length L, task i ends
// at L when its natural completion c_i ≥ L − Tol, and at c_i otherwise.
// build and PlanEndsRel both call it, so their ends agree bit for bit;
// energyClosed's sort.SearchFloat64s(in.c, L−Tol) is the same rule in
// index form (the first aligned task of the ascending c).
func (in *instance) alignedEnd(i int, L float64) float64 {
	end := in.c[i]
	if end >= L-schedule.Tol {
		end = L
	}
	return end
}

// build constructs the schedule for busy length L: tasks aligned by
// alignedEnd run over [0, L]; the rest run at natural speed. One core
// per positive-workload task (unbounded-core model).
func (in *instance) build(L float64) *schedule.Schedule {
	s := schedule.New(len(in.tasks), in.release, in.release+in.horizon)
	for i, t := range in.tasks {
		end := in.alignedEnd(i, L)
		s.Add(i, schedule.Segment{
			TaskID: t.ID,
			Start:  in.release,
			End:    in.release + end,
			Speed:  t.Workload / end,
		})
	}
	s.Normalize()
	return s
}

// solution audits the schedule for busy length L and wraps it.
func (in *instance) solution(L float64, caseIdx int) *Solution {
	s := in.build(L)
	return &Solution{
		Schedule: s,
		BusyLen:  L,
		Delta:    in.horizon - L,
		Case:     caseIdx,
		Energy:   schedule.Audit(s, in.sys).Total(),
	}
}

// empty returns the solution for an instance with no positive-workload
// tasks.
func (in *instance) empty() *Solution {
	s := schedule.New(0, in.release, in.release+in.horizon)
	return &Solution{
		Schedule: s,
		Delta:    in.horizon,
		Energy:   schedule.Audit(s, in.sys).Total(),
	}
}

// countNonzero adds a per-call tally to the named counter, skipping a
// zero tally so a recorder never gains a key for work that did not
// happen.
func countNonzero(tel *telemetry.Recorder, name string, n int64) {
	if n != 0 {
		tel.Count(name, n)
	}
}

// Solve computes the optimal common-release schedule with the scheme of
// the system model of Table 1 (power.System.Model):
//
//   - §4.1, α = 0 with zero transition overhead: the solver ignores
//     sys.Core.Static, and the schedule is optimal (Theorem 2).
//   - §4.2, α ≠ 0 with zero transition overhead: tasks not aligned to
//     the memory busy interval run at their critical speed s_0, and the
//     schedule is optimal (Theorem 3). A non-nil tel also counts the
//     tasks whose s_0 was raised to the filled-speed floor
//     (sdem.solver.cr.critical_clamps).
//   - §7, any break-even time set (ξ ≠ 0 and/or ξ_m ≠ 0): tasks not
//     aligned to the memory busy interval run at the constrained
//     critical speed s_c of §7, aligned tasks finish together at busy
//     length L, and overheadScan minimizes the audited energy over L.
//     That scan subsumes every row of the paper's Table 3: the
//     candidates Δ = Δ_mi, Δ = ξ and Δ = 0 are all piece boundaries or
//     interior minima of some piece. A non-nil tel counts the objective
//     evaluations (sdem.solver.cr.objective_evals) and the convex pieces
//     priced (sdem.solver.cr.pieces).
//
// SDEM-ON re-plans through here on every arrival, making this the
// module's hottest solver entry point. A nil tel is the uninstrumented
// path.
//
//sdem:hotpath
func Solve(tasks task.Set, sys power.System, tel *telemetry.Recorder) (*Solution, error) {
	return solve(sys.Model(), tasks, sys, tel)
}

// schemes labels each system model's solves in telemetry.
var schemes = [...]string{
	power.ModelAlphaZero: "alpha_zero",
	power.ModelStatic:    "with_static",
	power.ModelOverhead:  "overhead",
}

// solve runs the scheme of system model m on a fresh instance.
func solve(m power.Model, tasks task.Set, sys power.System, tel *telemetry.Recorder) (*Solution, error) {
	in := &instance{}
	L, caseIdx, err := in.plan(m, tasks, sys, tel)
	if err != nil {
		return nil, err
	}
	if len(in.tasks) == 0 {
		return in.empty(), nil
	}
	sol := in.solution(L, caseIdx)
	in.record(schemes[m], sol)
	return sol, nil
}

// plan normalizes tasks for the scheme of system model m and picks the
// optimal busy length L with its 1-based case index. With no
// positive-workload task it returns L = 0 and the caller takes the empty
// solution. The one-shot Solve and Solver.PlanEndsRel share it, so the
// two can never diverge.
func (in *instance) plan(m power.Model, tasks task.Set, sys power.System, tel *telemetry.Recorder) (L float64, caseIdx int, err error) {
	if err := in.normalizeInto(tasks, sys, m, tel); err != nil {
		return 0, 0, err
	}
	switch {
	case len(in.tasks) == 0:
		return 0, 0, nil
	case m == power.ModelOverhead:
		L, caseIdx = in.overheadScan()
		return L, caseIdx, nil
	case m == power.ModelAlphaZero && numeric.IsZero(in.sys.Memory.Static, 0):
		// Without memory leakage each task independently prefers its
		// filled speed; the busy length is the latest deadline.
		return in.c[len(in.c)-1], 1, nil
	}
	L, caseIdx = in.caseScan()
	return L, caseIdx, nil
}
