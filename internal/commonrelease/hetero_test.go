package commonrelease

import (
	"math"
	"math/rand"
	"testing"

	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
)

// randomHetero draws tasks plus per-task core models with varied α and β
// (same λ, as the extension requires).
func randomHetero(r *rand.Rand, n int) (task.Set, []power.Core) {
	tasks := make(task.Set, n)
	cores := make([]power.Core, n)
	for i := range tasks {
		tasks[i] = task.Task{
			ID:       i,
			Release:  0,
			Deadline: power.Milliseconds(20 + r.Float64()*100),
			Workload: 2e6 + r.Float64()*3e6,
		}
		c := power.CortexA57()
		c.Static *= 0.5 + r.Float64()*1.5
		c.Beta *= 0.5 + r.Float64()*1.5
		c.BreakEven = 0
		cores[i] = c
	}
	return tasks, cores
}

// heteroSweep densely sweeps the busy length with the aligned structure
// and per-core audit.
func heteroSweep(tasks task.Set, cores []power.Core, mem power.Memory, samples int) float64 {
	type item struct {
		t    task.Task
		core power.Core
		c    float64
	}
	var items []item
	var horizon, cmax float64
	for i, t := range tasks {
		horizon = math.Max(horizon, t.Deadline)
		s0 := cores[i].CriticalSpeed(t.FilledSpeed())
		c := t.Workload / s0
		items = append(items, item{t, cores[i], c})
		cmax = math.Max(cmax, c)
	}
	best := math.Inf(1)
	for k := 1; k <= samples; k++ {
		L := cmax * float64(k) / float64(samples)
		s := schedule.New(len(items), 0, horizon)
		models := make([]power.Core, len(items))
		ok := true
		for i, it := range items {
			models[i] = it.core
			end := it.c
			if end >= L {
				end = L
			}
			speed := it.t.Workload / end
			if it.core.SpeedMax > 0 && speed > it.core.SpeedMax*(1+1e-9) {
				ok = false
				break
			}
			s.Add(i, schedule.Segment{TaskID: it.t.ID, Start: 0, End: end, Speed: speed})
		}
		if !ok {
			continue
		}
		s.Normalize()
		if e := schedule.AuditPerCore(s, models, mem).Total(); e < best {
			best = e
		}
	}
	return best
}

func TestSolveHeteroMatchesSweep(t *testing.T) {
	mem := power.Memory{Static: 4}
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks, cores := randomHetero(r, 1+r.Intn(7))
		sol, err := SolveHetero(tasks, cores, mem)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := heteroSweep(tasks, cores, mem, 4000)
		if sol.Energy > ref*(1+1e-6) {
			t.Errorf("seed %d: solver %.9g worse than sweep %.9g", seed, sol.Energy, ref)
		}
		if err := sol.Schedule.Validate(tasks, schedule.ValidateOptions{NonPreemptive: true, SpeedMax: power.MHz(1900)}); err != nil {
			t.Errorf("seed %d: invalid schedule: %v", seed, err)
		}
	}
}

func TestSolveHeteroReducesToHomogeneous(t *testing.T) {
	// Identical core models must reproduce the §4.2 scheme exactly.
	sys := testSystem()
	for seed := int64(20); seed < 26; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := randomCommonRelease(r, 1+r.Intn(6))
		cores := make([]power.Core, len(tasks))
		for i := range cores {
			cores[i] = sys.Core
			cores[i].BreakEven = 0
		}
		het, err := SolveHetero(tasks, cores, sys.Memory)
		if err != nil {
			t.Fatal(err)
		}
		hom, err := solve(power.ModelStatic, tasks, sys, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(het.Energy, hom.Energy, 1e-9) {
			t.Errorf("seed %d: hetero %.9g != homogeneous %.9g", seed, het.Energy, hom.Energy)
		}
		if !almost(het.BusyLen, hom.BusyLen, 1e-9) {
			t.Errorf("seed %d: busy %.9g != %.9g", seed, het.BusyLen, hom.BusyLen)
		}
	}
}

func TestSolveHeteroAssignsCriticalSpeedsPerCore(t *testing.T) {
	// Two identical tasks on a leaky vs an efficient core: the leaky
	// core's task must run faster (its critical speed is higher).
	mem := power.Memory{Static: 0.0001} // negligible memory: pure per-core behaviour
	d := power.Milliseconds(100)
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: d, Workload: 3e6},
		{ID: 2, Release: 0, Deadline: d, Workload: 3e6},
	}
	leaky := power.CortexA57()
	leaky.Static *= 4
	efficient := power.CortexA57()
	sol, err := SolveHetero(tasks, []power.Core{leaky, efficient}, mem)
	if err != nil {
		t.Fatal(err)
	}
	speeds := map[int]float64{}
	for _, segs := range sol.Schedule.Cores {
		for _, sg := range segs {
			speeds[sg.TaskID] = sg.Speed
		}
	}
	if speeds[1] <= speeds[2] {
		t.Errorf("leaky core's task (%.3g) should run faster than efficient core's (%.3g)", speeds[1], speeds[2])
	}
}

func TestSolveHeteroErrors(t *testing.T) {
	mem := power.Memory{Static: 4}
	tasks := task.Set{{ID: 1, Release: 0, Deadline: 1, Workload: 1e6}}
	// Mismatched lengths.
	if _, err := SolveHetero(tasks, nil, mem); err == nil {
		t.Error("mismatched core count must be rejected")
	}
	// Mixed λ.
	a, b := power.CortexA57(), power.CortexA57()
	b.Lambda = 2
	two := task.Set{
		{ID: 1, Release: 0, Deadline: 1, Workload: 1e6},
		{ID: 2, Release: 0, Deadline: 1, Workload: 1e6},
	}
	if _, err := SolveHetero(two, []power.Core{a, b}, mem); err == nil {
		t.Error("mixed λ must be rejected")
	}
	// Non-common release.
	bad := task.Set{
		{ID: 1, Release: 0, Deadline: 1, Workload: 1e6},
		{ID: 2, Release: 0.5, Deadline: 1, Workload: 1e6},
	}
	if _, err := SolveHetero(bad, []power.Core{a, a}, mem); err == nil {
		t.Error("non-common release must be rejected")
	}
	// Infeasible on its core.
	tight := task.Set{{ID: 1, Release: 0, Deadline: 1e-6, Workload: 1e9}}
	if _, err := SolveHetero(tight, []power.Core{a}, mem); err == nil {
		t.Error("infeasible task must be rejected")
	}
	// Empty is fine.
	sol, err := SolveHetero(task.Set{}, nil, mem)
	if err != nil || sol.Energy != 0 {
		t.Errorf("empty: %+v %v", sol, err)
	}
}

func TestSolveHeteroBigLittle(t *testing.T) {
	// big.LITTLE: the same workload split across an A57 and an A7. The
	// LITTLE core's task runs slower (lower critical speed), and moving
	// the heavy task to the big core beats the reverse assignment when
	// deadlines are tight enough to exceed the A7's cap.
	mem := power.Memory{Static: 2}
	d := power.Milliseconds(60)
	big, little := power.CortexA57(), power.CortexA7()
	heavy := task.Task{ID: 1, Release: 0, Deadline: d, Workload: 9e7} // needs 1.5 GHz > A7 cap
	light := task.Task{ID: 2, Release: 0, Deadline: d, Workload: 2e6}

	good, err := SolveHetero(task.Set{heavy, light}, []power.Core{big, little}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Schedule.Validate(task.Set{heavy, light}, schedule.ValidateOptions{NonPreemptive: true, SpeedMax: big.SpeedMax}); err != nil {
		t.Fatalf("big.LITTLE schedule invalid: %v", err)
	}
	// The reverse assignment is infeasible: the heavy task cannot meet
	// its deadline on the A7.
	if _, err := SolveHetero(task.Set{heavy, light}, []power.Core{little, big}, mem); err == nil {
		t.Error("heavy task on the LITTLE core must be rejected as infeasible")
	}
}
