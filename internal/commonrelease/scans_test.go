package commonrelease

import (
	"errors"
	"math"

	"sdem/internal/numeric"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// The paper's literal §4 procedures, kept as test oracles for the
// production case scan (caseScan): the per-case descriptors of Theorems 2
// and 3 without the speed cap, the Theorem 2 early-stopping walk and the
// Lemma 1 binary search.

// normalize validates the input and produces the sorted instance for the
// scheme of system model m, as plan does.
func normalize(tasks task.Set, sys power.System, m power.Model, tel *telemetry.Recorder) (*instance, error) {
	in := &instance{}
	if err := in.normalizeInto(tasks, sys, m, tel); err != nil {
		return nil, err
	}
	return in, nil
}

// energyOf is the audited energy of the busy-length-L candidate: the
// oracle energyClosed is pinned against.
func (in *instance) energyOf(L float64) float64 {
	return schedule.Audit(in.build(L), in.sys).Total()
}

// caseData holds the per-case quantities of the closed-form scan.
type caseData struct {
	lo, hi float64 // busy-length interval [c_{i−1}, c_i] (0 for case 1)
	lstar  float64 // unconstrained minimizer of E_i (Eq. 8 rewritten in L)
	suffix float64 // S_i = Σ_{j≥i} w_j^λ
	prefix float64 // Σ_{j<i} (β w_j^λ c_j^{1−λ} + α c_j)
}

// cases computes the n uncapped case descriptors. alphaPerCore is the
// static power charged per aligned core (α for §4.2, 0 for §4.1).
func (in *instance) cases(alphaPerCore float64) []caseData {
	n := len(in.tasks)
	core, mem := in.sys.Core, in.sys.Memory
	sufPow := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		sufPow[i] = sufPow[i+1] + math.Pow(in.tasks[i].Workload, core.Lambda)
	}
	out := make([]caseData, n)
	var prefix float64
	for i := 0; i < n; i++ { // case index i+1 in paper terms
		k := float64(n - i)
		denom := k*alphaPerCore + mem.Static
		lstar := math.Inf(1) // no static power anywhere: run filled
		if denom > 0 {
			lstar = math.Pow(core.Beta*(core.Lambda-1)*sufPow[i]/denom, 1/core.Lambda)
		}
		lo := 0.0
		if i > 0 {
			lo = in.c[i-1]
		}
		out[i] = caseData{lo: lo, hi: in.c[i], lstar: lstar, suffix: sufPow[i], prefix: prefix}
		prefix += core.Beta*math.Pow(in.tasks[i].Workload, core.Lambda)*math.Pow(in.c[i], 1-core.Lambda) +
			alphaPerCore*in.c[i]
	}
	return out
}

// energyAt evaluates the closed-form E_i at busy length L for case i
// (0-based), charging alphaPerCore per aligned core.
func (in *instance) energyAt(cd caseData, i int, L float64, alphaPerCore float64) float64 {
	if L <= 0 {
		return math.Inf(1)
	}
	core, mem := in.sys.Core, in.sys.Memory
	k := float64(len(in.tasks) - i)
	return (k*alphaPerCore+mem.Static)*L + core.Beta*cd.suffix*math.Pow(L, 1-core.Lambda) + cd.prefix
}

// Theorem2Scan reproduces the literal Theorem 2 procedure for §4.1: walk
// cases from n down to 1 and stop at the first case whose minimizer is
// valid (inside the case interval) or just-fit (below it). It returns the
// same (case, busy length) as the full scan.
func Theorem2Scan(tasks task.Set, sys power.System) (int, float64, error) {
	in, err := normalize(tasks, sys, power.ModelAlphaZero, nil)
	if err != nil {
		return 0, 0, err
	}
	if len(in.tasks) == 0 || numeric.IsZero(in.sys.Memory.Static, 0) {
		return 0, 0, errors.New("commonrelease: Theorem2Scan needs positive work and memory power")
	}
	cds := in.cases(0)
	// Case i in paper terms is index i−1 here; walking n→1 means n−1→0.
	// In busy-length terms: Δ_mi invalid (Δ_mi ≥ δ_{i−1}) ⟺ L* ≤ c_{i−1}
	// ⟺ L* ≤ lo, which sends the scan to the next smaller case index.
	for i := len(cds) - 1; i >= 0; i-- {
		cd := cds[i]
		switch {
		case cd.lstar < cd.lo: // paper's "invalid": sleep wants to be longer
			if i == 0 {
				return 1, cd.lo, nil
			}
			continue
		case cd.lstar > cd.hi: // "just-fit": clamp to the case boundary
			return i + 1, cd.hi, nil
		default: // "valid"
			return i + 1, cd.lstar, nil
		}
	}
	return 0, 0, errors.New("commonrelease: no feasible case")
}

// BinarySearchScan is the O(log n) Lemma 1 accelerator for §4.1: binary
// search over cases for the unique valid minimizer, falling back to the
// best just-fit boundary when no case is valid. A non-nil tel gains the
// bisection steps in sdem.solver.cr.bsearch_iters, making the O(log n)
// bound observable.
func BinarySearchScan(tasks task.Set, sys power.System, tel *telemetry.Recorder) (int, float64, error) {
	in, err := normalize(tasks, sys, power.ModelAlphaZero, tel)
	if err != nil {
		return 0, 0, err
	}
	if len(in.tasks) == 0 || numeric.IsZero(in.sys.Memory.Static, 0) {
		return 0, 0, errors.New("commonrelease: BinarySearchScan needs positive work and memory power")
	}
	caseIdx, L, iters := bisectCases(in.cases(0))
	countNonzero(in.tel, "sdem.solver.cr.bsearch_iters", iters)
	return caseIdx, L, nil
}

// bisectCases is the Lemma 1 binary search over the uncapped §4.1 cases:
// it returns the 1-based case index, its busy length, and the number of
// bisection steps taken.
func bisectCases(cds []caseData) (caseIdx int, L float64, iters int64) {
	lo, hi := 0, len(cds)-1
	var lastJustFit = -1
	for lo <= hi {
		iters++
		mid := (lo + hi) / 2
		cd := cds[mid]
		switch {
		case cd.lstar < cd.lo:
			// Sleep wants to exceed this case's domain ("invalid"):
			// search smaller case indices (longer sleep / shorter busy).
			hi = mid - 1
		case cd.lstar > cd.hi:
			// "Just-fit": the optimum clamps to this case's upper
			// boundary; a valid case, if any, has a larger index.
			lastJustFit = mid
			lo = mid + 1
		default:
			return mid + 1, cd.lstar, iters
		}
	}
	if lastJustFit >= 0 {
		return lastJustFit + 1, cds[lastJustFit].hi, iters
	}
	// All cases invalid: the global optimum is the boundary of case 1.
	return 1, cds[0].lo, iters
}
