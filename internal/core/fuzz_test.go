package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
)

// fuzzSet draws n structurally valid tasks of one shape: shape%4 picks
// common release, common deadline, agreeable (releases and deadlines
// both non-decreasing) or general windows. Workloads span tiny to
// beyond-s_up, so infeasible sets are part of the domain, and some are
// zero.
func fuzzSet(seed int64, n int, shape uint8) task.Set {
	r := rand.New(rand.NewSource(seed))
	ms := power.Milliseconds
	ts := make(task.Set, n)
	common := ms(5 + 100*r.Float64())
	release := 0.0
	for i := range ts {
		w := math.Pow(10, 4+3*r.Float64()) // 1e4 … 1e7 cycles
		if r.Intn(8) == 0 {
			w = 0
		}
		var rel, dl float64
		switch shape % 4 {
		case 0:
			rel, dl = 0, ms(1+120*r.Float64())
		case 1:
			rel, dl = common*r.Float64()*0.9, common
		case 2:
			release += ms(20 * r.Float64())
			rel, dl = release, release+ms(30)
		default:
			rel = ms(50 * r.Float64())
			dl = rel + ms(1+80*r.Float64())
		}
		ts[i] = task.Task{ID: i, Release: rel, Deadline: dl, Workload: w}
	}
	return ts
}

// fuzzSystem varies the default platform along the axes Table 1 and §7
// dispatch on: leak-free cores, core and memory break-even times, and
// memory static power.
func fuzzSystem(bits uint8) power.System {
	sys := power.DefaultSystem()
	if bits&1 != 0 {
		sys.Core.Static = 0
	}
	switch (bits >> 1) & 3 {
	case 1:
		sys.Core.BreakEven = power.Milliseconds(1)
	case 2:
		sys.Core.BreakEven = power.Milliseconds(8)
	}
	switch (bits >> 3) & 3 {
	case 1:
		sys.Memory.BreakEven = 0
	case 2:
		sys.Memory.BreakEven = power.Milliseconds(5)
	}
	if bits&32 != 0 {
		sys.Memory.Static = 0.5
	}
	return sys
}

// FuzzSolve is the offline dispatch's contract on random small task sets
// and platforms: Solve returns either a typed error (ErrGeneralOffline
// for a general set, or one of schedule's sentinel failure classes) or a
// schedule that validates, whose declared energy equals an independent
// audit, and which sits at or above the certified LowerBound.
func FuzzSolve(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), uint8(0))
	f.Add(int64(2), uint8(6), uint8(1), uint8(3))
	f.Add(int64(3), uint8(5), uint8(2), uint8(22))
	f.Add(int64(4), uint8(3), uint8(3), uint8(1))
	f.Add(int64(5), uint8(8), uint8(2), uint8(63))
	f.Fuzz(func(t *testing.T, seed int64, n, shape, sysBits uint8) {
		tasks := fuzzSet(seed, int(n%8)+1, shape)
		sys := fuzzSystem(sysBits)
		sol, err := SolveCtx(nil, tasks, sys, nil)
		if err != nil {
			var general ErrGeneralOffline
			switch {
			case errors.As(err, &general):
				if m := tasks.Classify(); m != task.ModelGeneral {
					t.Fatalf("ErrGeneralOffline on a %v set", m)
				}
			case errors.Is(err, schedule.ErrInfeasible),
				errors.Is(err, schedule.ErrDeadlineMiss),
				errors.Is(err, schedule.ErrSpeedCap):
			default:
				t.Fatalf("untyped error on %v: %v", tasks, err)
			}
			return
		}
		if err := sol.Schedule.Validate(tasks, schedule.ValidateOptions{SpeedMax: sys.Core.SpeedMax}); err != nil {
			t.Fatalf("invalid %s schedule: %v\ntasks %v", sol.Scheme, err, tasks)
		}
		audited := schedule.Audit(sol.Schedule, sys).Total()
		if math.IsNaN(audited) || math.IsInf(audited, 0) || audited < 0 {
			t.Fatalf("bad audited energy %g", audited)
		}
		if math.Abs(audited-sol.Energy) > 1e-9*math.Max(1, audited) {
			t.Fatalf("%s: declared energy %g, audit %g", sol.Scheme, sol.Energy, audited)
		}
		if lb := LowerBound(tasks, sys); audited < lb*(1-1e-9) {
			t.Fatalf("%s: energy %.12g below the certified bound %.12g\ntasks %v", sol.Scheme, audited, lb, tasks)
		}
	})
}

// TestInfeasibleIsTyped pins the error class FuzzSolve first caught
// missing: a task that exceeds s_up even at its filled speed fails with
// schedule.ErrInfeasible on the agreeable path as on the common-release
// one.
func TestInfeasibleIsTyped(t *testing.T) {
	ms := power.Milliseconds
	sys := power.DefaultSystem()
	for _, tasks := range []task.Set{
		{{ID: 0, Release: 0, Deadline: ms(1), Workload: 1e7}, {ID: 1, Release: 0, Deadline: ms(9), Workload: 1e6}},
		{{ID: 0, Release: 0, Deadline: ms(20), Workload: 1e6}, {ID: 1, Release: ms(10), Deadline: ms(30), Workload: 1e8}},
	} {
		if _, err := SolveCtx(nil, tasks, sys, nil); !errors.Is(err, schedule.ErrInfeasible) {
			t.Errorf("%v set: err = %v, want ErrInfeasible", tasks.Classify(), err)
		}
	}
}
