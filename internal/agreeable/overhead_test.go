package agreeable

import (
	"math/rand"
	"testing"

	"sdem/internal/commonrelease"
	"sdem/internal/power"
	"sdem/internal/task"
)

func TestOverheadDPMatchesBruteForce(t *testing.T) {
	// §7 DP (per-block α_m·ξ_m charge) against exhaustive partitions with
	// the same per-block extra.
	sys := power.DefaultSystem()
	sys.Core.BreakEven = 0 // isolate the memory transition term
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		tasks := randomAgreeable(r, 2+r.Intn(4))
		sol, err := solve(nil, power.ModelOverhead, tasks, sys, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := totalCost(sol, sys.Memory.TransitionEnergy())
		ref := bruteForce(tasks, sys, false, 200, sys.Memory.TransitionEnergy())
		if got > ref*(1+1e-6) {
			t.Errorf("seed %d: DP cost %.9g worse than brute force %.9g", seed, got, ref)
		}
		if ref > got*(1+2e-2) {
			t.Errorf("seed %d: brute force %.9g much worse than DP %.9g", seed, ref, got)
		}
	}
}

func TestOverheadAgreesWithCommonReleaseOnSharedInputs(t *testing.T) {
	// Common-release inputs: the §7 agreeable DP and the §7
	// common-release solver must land on comparable energies (the DP may
	// only match or slightly beat it by splitting blocks, and must never
	// be worse than the single-interval structure it subsumes).
	sys := power.DefaultSystem()
	for seed := int64(10); seed < 16; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		tasks := make(task.Set, n)
		for i := range tasks {
			tasks[i] = task.Task{
				ID:       i,
				Release:  0,
				Deadline: power.Milliseconds(20 + r.Float64()*100),
				Workload: 2e6 + r.Float64()*3e6,
			}
		}
		a, err := solve(nil, power.ModelOverhead, tasks, sys, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := commonrelease.Solve(tasks, sys, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Audited energies: the §7 agreeable DP follows the paper's
		// approximation (block objective + α_m·ξ_m per block, with our
		// no-compression fallback), while the common-release §7 solver
		// searches busy lengths against the audit directly — so the DP
		// may trail by a few percent on shared inputs; bound the gap.
		if a.Energy > b.Energy*1.10 {
			t.Errorf("seed %d: agreeable §7 (%.9g) much worse than common-release §7 (%.9g)",
				seed, a.Energy, b.Energy)
		}
		if b.Energy > a.Energy*1.05 {
			t.Errorf("seed %d: common-release §7 (%.9g) much worse than agreeable §7 (%.9g)",
				seed, b.Energy, a.Energy)
		}
	}
}

// TestFlatBlocksStartEarly checks the tie-break among equally cheap busy
// intervals. A burst of common-release tasks costs the same wherever its
// busy interval slides inside the shared window, and the block objective
// cannot see that §7's audit charges a gap shorter than ξ_m as awake time.
// Taking the earliest interval starts every burst at its release, so the
// memory sleeps through every quiet period and the audit matches the DP.
func TestFlatBlocksStartEarly(t *testing.T) {
	sys := power.DefaultSystem()
	r := rand.New(rand.NewSource(11))
	var tasks task.Set
	var at float64
	for b := 0; b < 4; b++ {
		window := power.Milliseconds(60 + r.Float64()*60)
		for i := 0; i < 5; i++ {
			tasks = append(tasks, task.Task{ID: len(tasks), Release: at, Deadline: at + window, Workload: 2e6 + r.Float64()*3e6})
		}
		at += power.Milliseconds(300) * (0.75 + 0.5*r.Float64())
	}
	sol, err := solve(nil, power.ModelOverhead, tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Blocks) != 4 {
		t.Fatalf("want one block per burst, got %d", len(sol.Blocks))
	}
	for _, b := range sol.Blocks {
		if rel := tasks[b.From].Release; !almost(b.BusyStart, rel, 1e-12) {
			t.Errorf("block [%d,%d] starts at %.12g, after its release %.12g", b.From, b.To, b.BusyStart, rel)
		}
	}
	if c := totalCost(sol, sys.Memory.TransitionEnergy()); !almost(sol.Energy, c, 1e-9) {
		t.Errorf("audited energy %.12g, DP cost %.12g", sol.Energy, c)
	}
}
