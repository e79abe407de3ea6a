package agreeable

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sdem/internal/power"
	"sdem/internal/task"
)

// dpEveryBlock is the prefix DP as it ran before blocks were bounded: it
// solves all n(n+1)/2 blocks and keeps the first strict minimum of each
// row. It returns the partition and the memo of every solved block,
// row-major by (first, last) task.
func (s *solver) dpEveryBlock(blockExtra float64) (partition, all []Block) {
	n := len(s.tasks)
	if n == 0 {
		return nil, nil
	}
	all = make([]Block, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			all[i*n+j] = s.blockSolve(i, j)
		}
	}
	opt := make([]float64, n+1)
	choice := make([]int, n+1)
	for q := 1; q <= n; q++ {
		opt[q] = math.Inf(1)
		for p := 0; p < q; p++ {
			if c := opt[p] + all[p*n+q-1].Cost + blockExtra; c < opt[q] {
				opt[q] = c
				choice[q] = p
			}
		}
	}
	for q := n; q > 0; q = choice[q] {
		partition = append([]Block{all[choice[q]*n+q-1]}, partition...)
	}
	return partition, all
}

// blockExtraOf is the per-block charge the DP of system model m adds.
func blockExtraOf(m power.Model, sys power.System) float64 {
	if m == power.ModelOverhead {
		return sys.Memory.TransitionEnergy()
	}
	return 0
}

// sameBits reports whether two blocks agree bit for bit.
func sameBits(a, b Block) bool {
	return a.From == b.From && a.To == b.To &&
		math.Float64bits(a.BusyStart) == math.Float64bits(b.BusyStart) &&
		math.Float64bits(a.BusyEnd) == math.Float64bits(b.BusyEnd) &&
		math.Float64bits(a.Cost) == math.Float64bits(b.Cost)
}

// checkEveryBlock solves tasks under model m with the bounded DP and
// requires the every-block oracle's partition and energy bits, and that
// no block's lower bound, less boundSlack, exceeds its solved cost. It
// returns false when the set is rejected before any DP runs.
func checkEveryBlock(t *testing.T, name string, tasks task.Set, sys power.System, m power.Model) bool {
	t.Helper()
	s, err := newSolver(tasks, sys, m)
	if err != nil {
		return false
	}
	sol, err := solve(nil, m, tasks, sys, nil)
	if err != nil {
		t.Fatalf("%s: solve: %v", name, err)
	}
	want, all := s.dpEveryBlock(blockExtraOf(m, sys))
	if len(sol.Blocks) != len(want) {
		t.Fatalf("%s: partition %v, every-block DP %v", name, sol.Blocks, want)
	}
	for i := range want {
		if !sameBits(sol.Blocks[i], want[i]) {
			t.Fatalf("%s: block %d is %+v, every-block DP %+v", name, i, sol.Blocks[i], want[i])
		}
	}
	if _, e, _ := s.place(m, want); math.Float64bits(e) != math.Float64bits(sol.Energy) {
		t.Fatalf("%s: energy %.17g, every-block DP %.17g", name, sol.Energy, e)
	}
	n := len(s.tasks)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			lb, cost := s.blockBound(i, j), all[i*n+j].Cost
			if lb-boundSlack*math.Abs(lb) > cost {
				t.Fatalf("%s: block [%d,%d] bound %.17g exceeds its cost %.17g", name, i, j, lb, cost)
			}
		}
	}
	return true
}

// chain is the benchmarks' set: n tasks of 3·10⁶ cycles released 15 ms
// apart with 60 ms windows.
func chain(n int) task.Set {
	ts := make(task.Set, n)
	var rel float64
	for i := range ts {
		rel += power.Milliseconds(15)
		ts[i] = task.Task{ID: i, Release: rel, Deadline: rel + power.Milliseconds(60), Workload: 3e6}
	}
	return ts
}

// offlineShaped draws the agreeable sets an offline-solve request
// carries: releases 5–25 ms apart, windows of 40–80 ms, 2–5·10⁶ cycles.
func offlineShaped(r *rand.Rand, n int) task.Set {
	ts := make(task.Set, n)
	var rel, dl float64
	for i := range ts {
		rel += power.Milliseconds(5 + 20*r.Float64())
		dl = math.Max(dl, rel+power.Milliseconds(40+40*r.Float64()))
		ts[i] = task.Task{ID: i, Release: rel, Deadline: dl, Workload: 2e6 + 3e6*r.Float64()}
	}
	return ts
}

// TestDPMatchesEveryBlockOnCorpora pins the bounded DP to the every-block
// oracle on the package's DP corpora: the golden-section DP sets, the
// tight sets, the large set, the benchmark chains and offline-solve's
// agreeable shape, each under the model its system classifies as.
func TestDPMatchesEveryBlockOnCorpora(t *testing.T) {
	check := func(name string, tasks task.Set, sys power.System) {
		checkEveryBlock(t, name, tasks, sys, sys.Model())
	}
	for name, sys := range oracleSystems() {
		for seed := int64(100); seed < 112; seed++ {
			r := rand.New(rand.NewSource(seed))
			check(fmt.Sprintf("%s seed %d", name, seed), randomAgreeable(r, 3+r.Intn(6)), sys)
		}
	}
	for seed := int64(0); seed < 80; seed++ {
		r := rand.New(rand.NewSource(seed))
		check(fmt.Sprintf("tight seed %d", seed), randomTight(r, 1+r.Intn(6)), power.DefaultSystem())
	}
	large := randomAgreeable(rand.New(rand.NewSource(8)), 60)
	check("large test", large, testSystem())
	check("large default", large, power.DefaultSystem())
	for _, n := range []int{12, 50} {
		check(fmt.Sprintf("chain %d", n), chain(n), testSystem())
	}
	for seed := int64(0); seed < 64; seed++ {
		check(fmt.Sprintf("offline seed %d", seed), offlineShaped(rand.New(rand.NewSource(seed)), 8), power.DefaultSystem())
	}
}

// TestDPMatchesEveryBlockAllModels pins the bounded DP to the every-block
// oracle on random agreeable sets in each of Table 1's three system
// models, on every oracle platform.
func TestDPMatchesEveryBlockAllModels(t *testing.T) {
	for name, sys := range oracleSystems() {
		for _, m := range []power.Model{power.ModelAlphaZero, power.ModelStatic, power.ModelOverhead} {
			for seed := int64(0); seed < 40; seed++ {
				r := rand.New(rand.NewSource(seed))
				checkEveryBlock(t, fmt.Sprintf("%s model %d seed %d", name, m, seed), randomAgreeable(r, 1+r.Intn(16)), sys, m)
			}
		}
	}
}

// FuzzAgreeableDP pins the bounded DP to the every-block oracle on fuzzed
// agreeable sets, platforms and system models: the same partition, the
// same energy bits, and every block's cost at or above its bound. Each
// four bytes of raw are one task: the gap to its release, its window and
// its workload; deadlines are forced non-decreasing.
func FuzzAgreeableDP(f *testing.F) {
	f.Add([]byte{10, 200, 40, 90, 255, 255, 128, 0, 64, 64, 64, 64}, 4.0, 0.04, 0.31, 1.9e9, uint8(2))
	f.Add([]byte{1, 1, 255, 255, 1, 1, 255, 255, 0, 0, 9, 9}, 0.0, 0.0, 0.0, 0.0, uint8(0))
	f.Add([]byte{200, 10, 200, 10, 30, 30, 250, 250, 90, 9, 9, 90, 5, 80, 30, 30}, 1.5, 0.01, 1.0, 7e8, uint8(1))
	f.Add([]byte{0, 90, 60, 60, 0, 90, 60, 60, 0, 90, 60, 60, 0, 90, 60, 60}, 8.0, 0.002, 2.0, 0.0, uint8(6))
	f.Fuzz(func(t *testing.T, raw []byte, alphaMem, xiMem, alpha, speedMax float64, model uint8) {
		for _, v := range [4]float64{alphaMem, xiMem, alpha, speedMax} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite parameter")
			}
		}
		sys := power.DefaultSystem()
		sys.Memory.Static = math.Mod(math.Abs(alphaMem), 10)
		sys.Memory.BreakEven = math.Mod(math.Abs(xiMem), 0.1)
		sys.Core.Static = math.Mod(math.Abs(alpha), 5)
		sys.Core.SpeedMax = math.Mod(math.Abs(speedMax), 5e9)
		if sys.Core.SpeedMax < 1e8 {
			sys.Core.SpeedMax = 0
		}
		if model&4 != 0 {
			sys.Core.BreakEven = 0
		}
		var tasks task.Set
		var rel, dl float64
		for i := 0; i+4 <= len(raw) && len(tasks) < 16; i += 4 {
			rel += power.Milliseconds(40 * float64(raw[i]) / 255)
			dl = math.Max(dl, rel+power.Milliseconds(1+119*float64(raw[i+1])/255))
			w := 1e4 + 1e7*float64(uint16(raw[i+2])<<8|uint16(raw[i+3]))/65535
			tasks = append(tasks, task.Task{ID: len(tasks), Release: rel, Deadline: dl, Workload: w})
		}
		m := power.Model(model % 3)
		if !checkEveryBlock(t, fmt.Sprintf("model %d", m), tasks, sys, m) {
			t.Skip("instance rejected")
		}
	})
}
