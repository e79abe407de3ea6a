// Package task defines the real-time task model of the SDEM problem: tasks
// with release time, deadline and cycle workload, plus the task-set
// classification (common release / agreeable deadline / general) that
// selects which scheduling algorithm of the paper applies.
package task

import (
	"fmt"
	"math"
	"sort"

	"sdem/internal/numeric"
)

// speedTol is the package's relative speed-feasibility tolerance. It
// matches schedule.Tol (1e-9) by value; the schedule package imports task,
// so the constant is restated here rather than imported.
const speedTol = 1e-9

// Task is one real-time job instance. Times are seconds, workload is CPU
// cycles. A task accesses memory throughout its whole execution (§3).
type Task struct {
	// ID identifies the task within its set; algorithms preserve it so
	// schedules can be traced back to inputs.
	ID int
	// Release is the earliest time r_i the task may start.
	Release float64
	// Deadline is the time d_i by which the task must complete.
	Deadline float64
	// Workload is the number of CPU cycles w_i the task requires.
	Workload float64
	// Name optionally labels the task (e.g. "fft#3") for traces.
	Name string
}

// Window returns the length of the feasible region |I_i| = d_i − r_i.
func (t Task) Window() float64 { return t.Deadline - t.Release }

// FilledSpeed returns s_fi = w_i/(d_i − r_i), the slowest speed that
// completes the task inside its feasible region. It is +Inf for an empty
// window with positive work.
func (t Task) FilledSpeed() float64 {
	w := t.Window()
	if w <= 0 {
		if numeric.IsZero(t.Workload, 0) {
			return 0
		}
		return math.Inf(1)
	}
	return t.Workload / w
}

// Validate reports whether the task is well-formed.
func (t Task) Validate() error {
	switch {
	case math.IsNaN(t.Release) || math.IsNaN(t.Deadline) || math.IsNaN(t.Workload):
		return fmt.Errorf("task %d: NaN field", t.ID)
	case t.Workload < 0:
		return fmt.Errorf("task %d: negative workload %g", t.ID, t.Workload)
	case t.Deadline < t.Release:
		return fmt.Errorf("task %d: deadline %g precedes release %g", t.ID, t.Deadline, t.Release)
	case t.Workload > 0 && numeric.IsZero(t.Window(), 0):
		return fmt.Errorf("task %d: positive workload in empty window", t.ID)
	}
	return nil
}

// Set is an ordered collection of tasks.
type Set []Task

// Validate checks every task and that IDs are unique.
func (s Set) Validate() error {
	seen := make(map[int]bool, len(s))
	for _, t := range s {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.ID] {
			return fmt.Errorf("duplicate task ID %d", t.ID)
		}
		seen[t.ID] = true
	}
	return nil
}

// Clone returns a deep copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Workloads returns the slice of workloads in set order.
func (s Set) Workloads() []float64 {
	out := make([]float64, len(s))
	for i, t := range s {
		out[i] = t.Workload
	}
	return out
}

// Span returns the earliest release and the latest deadline of the set.
// For an empty set both are zero.
func (s Set) Span() (start, end float64) {
	if len(s) == 0 {
		return 0, 0
	}
	start, end = s[0].Release, s[0].Deadline
	for _, t := range s[1:] {
		start = math.Min(start, t.Release)
		end = math.Max(end, t.Deadline)
	}
	return start, end
}

// SortByDeadline sorts the set in place by (deadline, release, ID).
func (s Set) SortByDeadline() {
	sort.SliceStable(s, func(i, j int) bool {
		//lint:allow floatcmp: sort tie-breaking must be exact to keep the comparator transitive
		if s[i].Deadline != s[j].Deadline {
			return s[i].Deadline < s[j].Deadline
		}
		if s[i].Release != s[j].Release { //lint:allow floatcmp: exact tie-break, see above
			return s[i].Release < s[j].Release
		}
		return s[i].ID < s[j].ID
	})
}

// SortByRelease sorts the set in place by (release, deadline, ID).
func (s Set) SortByRelease() {
	sort.SliceStable(s, func(i, j int) bool {
		//lint:allow floatcmp: sort tie-breaking must be exact to keep the comparator transitive
		if s[i].Release != s[j].Release {
			return s[i].Release < s[j].Release
		}
		if s[i].Deadline != s[j].Deadline { //lint:allow floatcmp: exact tie-break, see above
			return s[i].Deadline < s[j].Deadline
		}
		return s[i].ID < s[j].ID
	})
}

// Model classifies a task set into the task models of Table 1.
type Model int

const (
	// ModelEmpty is an empty set (trivially every model).
	ModelEmpty Model = iota
	// ModelCommonDeadline means common release AND common deadline.
	ModelCommonDeadline
	// ModelCommonRelease means all tasks share one release time (§4).
	ModelCommonRelease
	// ModelAgreeable means later release implies later-or-equal deadline
	// (§5); common-release sets are agreeable too, but classification
	// returns the most specific model.
	ModelAgreeable
	// ModelGeneral is everything else (§6).
	ModelGeneral
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ModelEmpty:
		return "empty"
	case ModelCommonDeadline:
		return "common-release-and-deadline"
	case ModelCommonRelease:
		return "common-release"
	case ModelAgreeable:
		return "agreeable-deadline"
	case ModelGeneral:
		return "general"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Classify returns the most specific model the set satisfies.
func (s Set) Classify() Model {
	if len(s) == 0 {
		return ModelEmpty
	}
	commonRelease, commonDeadline := true, true
	for _, t := range s[1:] {
		//lint:allow floatcmp: the task models of Table 1 are defined on exact input times
		if t.Release != s[0].Release {
			commonRelease = false
		}
		if t.Deadline != s[0].Deadline { //lint:allow floatcmp: exact model classification, see above
			commonDeadline = false
		}
	}
	switch {
	case commonRelease && commonDeadline:
		return ModelCommonDeadline
	case commonRelease:
		return ModelCommonRelease
	case s.IsAgreeable():
		return ModelAgreeable
	default:
		return ModelGeneral
	}
}

// IsAgreeable reports whether the set satisfies the agreeable-deadline
// property: for any two tasks, r_i ≥ r_j implies d_i ≥ d_j (equivalently,
// sorting by release also sorts by deadline).
func (s Set) IsAgreeable() bool {
	sorted := s.Clone()
	sorted.SortByRelease()
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Deadline < sorted[i-1].Deadline {
			return false
		}
	}
	return true
}

// IsCommonRelease reports whether every task shares one release time.
func (s Set) IsCommonRelease() bool {
	for _, t := range s[min(1, len(s)):] {
		//lint:allow floatcmp: common release is defined on exact input times
		if t.Release != s[0].Release {
			return false
		}
	}
	return true
}

// Feasible reports whether every task can individually meet its deadline
// at the given maximum speed (s_up ≥ s_fi for all i, the paper's standing
// assumption). A zero speedMax means unbounded.
func (s Set) Feasible(speedMax float64) bool {
	if speedMax <= 0 {
		return true
	}
	for _, t := range s {
		if t.FilledSpeed() > speedMax*(1+speedTol) {
			return false
		}
	}
	return true
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
