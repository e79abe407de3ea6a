package commonrelease

import (
	"math"

	"sdem/internal/power"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// Solver is a retained common-release solver: it owns one instance whose
// scratch buffers (normalization, case tables, overhead scan) persist
// across solves, so repeated planning — SDEM-ON re-planning every
// arrival, sdemd serving request streams — runs allocation-free once the
// buffers reach the high-water instance size.
//
// A Solver is not safe for concurrent use; retain one per goroutine (or
// pool them, as online.Schedule does).
type Solver struct {
	in   instance
	ends []float64
}

// PlanEndsRel solves the common-release instance with the same scheme
// dispatch as Solve and returns only the per-task completion ends,
// relative to the common release: ends[i] is the busy-aligned completion
// of input task i (its natural completion c_i, or the busy length L when
// aligned), or 0 for a zero-workload task scheduled nowhere.
//
// The returned slice aliases the Solver's scratch and is valid until the
// next PlanEndsRel call.
//
// Bit-compatibility contract, enforced by the online equivalence tests:
// normalization subtracts the release before any arithmetic, so ends
// depends only on the (deadline − release, workload) bit pattern of each
// task plus sys — two instances that agree on those produce identical
// bits at any release. The segment that task i receives in the
// corresponding Solve solution schedule spans exactly
// [release, release + ends[i]] — unless that float interval is no longer
// than schedule.Tol/10, in which case Normalize drops it and the task
// has no segment. Callers recover the absolute picture by replaying that
// shift-and-filter; PlanEndsRel itself skips building and auditing the
// final schedule, which is what makes it cheaper than Solve — the
// busy-length search is shared code (instance.plan).
func (sv *Solver) PlanEndsRel(tasks task.Set, sys power.System, tel *telemetry.Recorder) ([]float64, error) {
	in := &sv.in
	m := sys.Model()
	L, _, err := in.plan(m, tasks, sys, tel)
	if err != nil {
		return nil, err
	}
	if tel != nil {
		tel.CountL("sdem.solver.cr.solves", "scheme="+schemes[m], 1)
		tel.Count("sdem.solver.cr.tasks", int64(len(in.tasks)))
	}

	if cap(sv.ends) < len(tasks) {
		sv.ends = make([]float64, len(tasks))
	}
	ends := sv.ends[:len(tasks)]
	for i := range ends {
		ends[i] = 0
	}
	for i := range in.tasks {
		ends[in.pos[i]] = in.alignedEnd(i, L)
	}
	return ends, nil
}

// MaxNaturalCompletion returns the largest completion time, relative to
// the common release, that Solve's normalization assigns any task of the
// set when it runs at its natural speed under sys: the same bits as the
// largest in.c entry of normalizeInto, which derives each through the
// same naturalSpeed with the same §7 horizon max_j (d_j − r_j). The
// system model is derived once for the whole set, and s_m comes from the
// Solver's memo, shared with PlanEndsRel.
//
// Every scheme picks a busy length L ≤ max_j c_j and every planned
// completion is ≤ max(c_j, L), so release + MaxNaturalCompletion bounds
// all planned execution — the online engine uses this to certify that a
// planning step cannot schedule work past a point without running the
// solve.
func (sv *Solver) MaxNaturalCompletion(tasks task.Set, sys power.System) float64 {
	m, horizon, sm := sys.Model(), overheadHorizon(tasks), sv.in.criticalSpeed(sys.Core)
	var cmax float64
	for _, t := range tasks {
		cmax = math.Max(cmax, t.Workload/naturalSpeed(t, sys, m, horizon, sm))
	}
	return cmax
}
