package agreeable

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sdem/internal/power"
	"sdem/internal/task"
)

// blockEnergyNaive evaluates the block objective E(bs, be) task by task,
// without the prefix sums of blockEnergy.
func (s *solver) blockEnergyNaive(from, to int, bs, be float64) float64 {
	if be <= bs {
		return math.Inf(1)
	}
	e := s.sys.Memory.Static * (be - bs)
	for k := from; k <= to; k++ {
		t := s.tasks[k]
		ce, _ := s.coreEnergy(k, math.Min(t.Deadline, be)-math.Max(t.Release, bs))
		if math.IsInf(ce, 1) {
			return math.Inf(1)
		}
		e += ce
	}
	return e
}

// blockSolveGolden is the probe-based block solver the subgradient search
// replaced: nested golden-section minimization of E over the (s', e') box
// at tolerance relTol/1000. It is the test oracle blockSolve is pinned to.
func (s *solver) blockSolveGolden(from, to int) Block {
	first, last := s.tasks[from], s.tasks[to]
	box := Box{
		X0: first.Release, X1: first.Deadline,
		Y0: last.Release, Y1: last.Deadline,
	}
	bs, be, cost := MinimizeConvex2D(func(x, y float64) float64 {
		return s.blockEnergyNaive(from, to, x, y)
	}, box, relTol/1000)
	return Block{From: from, To: to, BusyStart: bs, BusyEnd: be, Cost: cost}
}

// oracleSystems are the platforms the block solver is pinned on: the
// free-transition test platform (whose aligned tasks settle strictly
// between s₀ and s_up), the default platform (whose memory power pushes
// s₁ past s_up, so blocks sit on their s_up floors), and an uncapped core.
func oracleSystems() map[string]power.System {
	unbounded := testSystem()
	unbounded.Core.SpeedMax = 0
	return map[string]power.System{
		"test":      testSystem(),
		"default":   power.DefaultSystem(),
		"unbounded": unbounded,
	}
}

// TestBlockSolveMatchesGoldenSection pins the subgradient block solver to
// the golden-section oracle at 1e-9 relative on every block of random
// agreeable sets, in every mode. The oracle may come out up to ~1e-9
// lower: its probes may land a hair inside the relTol slack above s_up
// that coreEnergy clamps, which the root finding never enters.
func TestBlockSolveMatchesGoldenSection(t *testing.T) {
	for name, sys := range oracleSystems() {
		for _, m := range []power.Model{power.ModelAlphaZero, power.ModelStatic, power.ModelOverhead} {
			for seed := int64(0); seed < 12; seed++ {
				r := rand.New(rand.NewSource(seed))
				s, err := newSolver(randomAgreeable(r, 1+r.Intn(7)), sys, m)
				if err != nil {
					t.Fatal(err)
				}
				for i := range s.tasks {
					for j := i; j < len(s.tasks); j++ {
						got, want := s.blockSolve(i, j), s.blockSolveGolden(i, j)
						if !almost(got.Cost, want.Cost, 1e-9) {
							t.Errorf("%s mode %d seed %d block [%d,%d]: cost %.15g, golden section %.15g",
								name, m, seed, i, j, got.Cost, want.Cost)
						}
						if e := s.blockEnergyNaive(i, j, got.BusyStart, got.BusyEnd); !almost(got.Cost, e, 1e-12) {
							t.Errorf("%s mode %d seed %d block [%d,%d]: prefix-sum cost %.15g, direct %.15g",
								name, m, seed, i, j, got.Cost, e)
						}
					}
				}
			}
		}
	}
}

// randomTight draws agreeable sets with windows of 2–10 ms and bursty
// releases: on the default platform their blocks sit on s_up floors and
// kinks at once, where the busy end is dragged along as the start moves.
func randomTight(r *rand.Rand, n int) task.Set {
	s := make(task.Set, n)
	var rel, dPrev float64
	for i := range s {
		rel += r.Float64() * power.Milliseconds(3) * float64(r.Intn(2))
		d := math.Max(rel+power.Milliseconds(2+r.Float64()*8), dPrev)
		dPrev = d
		s[i] = task.Task{ID: i, Release: rel, Deadline: d, Workload: 1e6 + r.Float64()*3e6}
	}
	return s
}

// TestBlockSolveMatchesGoldenSectionTight pins the block solver on tight
// windows, on the default platform.
func TestBlockSolveMatchesGoldenSectionTight(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		r := rand.New(rand.NewSource(seed))
		s, err := newSolver(randomTight(r, 1+r.Intn(6)), power.DefaultSystem(), power.ModelStatic)
		if err != nil {
			continue // infeasible at s_up
		}
		for i := range s.tasks {
			for j := i; j < len(s.tasks); j++ {
				got, want := s.blockSolve(i, j), s.blockSolveGolden(i, j)
				// The golden-section probes can miss a narrow feasible
				// region and settle higher, never lower.
				if got.Cost > want.Cost*(1+1e-9) {
					t.Errorf("seed %d block [%d,%d]: cost %.15g, golden section %.15g", seed, i, j, got.Cost, want.Cost)
				}
			}
		}
	}
}

// TestDPPartitionsMatchGoldenSection checks the DP over the new block
// costs picks the same block partition as a DP over the golden-section
// costs, at the same total cost.
func TestDPPartitionsMatchGoldenSection(t *testing.T) {
	for name, sys := range oracleSystems() {
		for seed := int64(100); seed < 112; seed++ {
			r := rand.New(rand.NewSource(seed))
			tasks := randomAgreeable(r, 3+r.Intn(6))
			sol, err := SolveCtx(nil, tasks, sys, nil)
			if err != nil {
				t.Fatal(err)
			}
			m, extra := power.ModelStatic, 0.0
			if sys.Memory.BreakEven > 0 {
				m, extra = power.ModelOverhead, sys.Memory.TransitionEnergy()
			}
			s, err := newSolver(tasks, sys, m)
			if err != nil {
				t.Fatal(err)
			}
			n := len(s.tasks)
			opt := make([]float64, n+1)
			choice := make([]int, n+1)
			for q := 1; q <= n; q++ {
				opt[q] = math.Inf(1)
				for p := 0; p < q; p++ {
					if c := opt[p] + s.blockSolveGolden(p, q-1).Cost + extra; c < opt[q] {
						opt[q], choice[q] = c, p
					}
				}
			}
			var want [][2]int
			for q := n; q > 0; q = choice[q] {
				want = append([][2]int{{choice[q], q - 1}}, want...)
			}
			var got [][2]int
			for _, b := range sol.Blocks {
				got = append(got, [2]int{b.From, b.To})
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s seed %d: partition %v, golden-section DP %v", name, seed, got, want)
			}
			if c := totalCost(sol, extra); !almost(c, opt[n], 1e-9) {
				t.Errorf("%s seed %d: DP cost %.15g, golden-section DP %.15g", name, seed, c, opt[n])
			}
		}
	}
}
