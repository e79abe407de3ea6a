package resilient

import (
	"math/rand"
	"reflect"
	"testing"

	"sdem/internal/faults"
	"sdem/internal/power"
	"sdem/internal/schedule"
)

// randomSchedule draws 1–4 cores of non-overlapping segments over [0, 1]
// with idle gaps on both sides of the 40 ms memory break-even time, so
// the memory's common idle gaps land on both sides of it too. Every core
// runs at least one segment, so the memory wakes.
func randomSchedule(rng *rand.Rand) *schedule.Schedule {
	cores := 1 + rng.Intn(4)
	s := schedule.New(cores, 0, 1)
	id := 0
	for c := 0; c < cores; c++ {
		t := rng.Float64() * 0.1
		for n := 1 + rng.Intn(5); n > 0 && t < 0.95; n-- {
			end := t + 0.005 + rng.Float64()*0.1
			if end > 1 {
				end = 1
			}
			s.Add(c, schedule.Segment{TaskID: id, Start: t, End: end, Speed: 1e8 + rng.Float64()*1e9})
			id++
			t = end + rng.Float64()*0.12
		}
	}
	s.Normalize()
	return s
}

// TestSleepGapsMatchAudit: the gaps sleepGaps lets wakes stall and
// spurious wakes interrupt are exactly the memory sleep transitions the
// audit charges, under every memory policy, on a leaking memory and a
// leak-free one — and a leak-free memory, which never transitions, has
// no wake for a WakeLatency fault to stall.
func TestSleepGapsMatchAudit(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	policies := []schedule.SleepPolicy{schedule.SleepNever, schedule.SleepAlways, schedule.SleepBreakEven}
	for trial := 0; trial < 300; trial++ {
		s := randomSchedule(rng)
		var plan faults.Plan
		for i := 0; i < 3; i++ {
			plan.Faults = append(plan.Faults, faults.Fault{
				Kind: faults.WakeLatency, TaskID: -1, Core: -1, At: rng.Float64(), Delay: 0.01,
			})
		}
		for _, pol := range policies {
			for _, alpha := range []float64{0, 4} {
				sys := power.DefaultSystem()
				sys.Memory.Static = alpha
				s.MemoryPolicy = pol
				got := len(sleepGaps(s, sys.Memory))
				if want := schedule.Audit(s, sys).MemorySleeps; got != want {
					t.Fatalf("trial %d, policy %v, α_m %g: %d sleep gaps, audit charges %d transitions",
						trial, pol, alpha, got, want)
				}
				if alpha == 0 {
					if st := matchWakeStalls(s, sys, plan); len(st) != 0 {
						t.Fatalf("trial %d, policy %v: leak-free memory stalls wakes %+v", trial, pol, st)
					}
				}
			}
		}
	}
}

// A WakeLatency fault on a leak-free memory is inert end to end: the
// replay equals the fault-free one and charges no stall energy. (A
// non-empty plan replays in checkpointed slices, so the energy agrees
// up to summation order.)
func TestWakeLatencyInertOnLeakFreeMemory(t *testing.T) {
	sys := power.DefaultSystem()
	sys.Memory.Static = 0
	tasks := benchTasks(t, 8, 3)
	sched, _ := offline(t, tasks, sys)
	plan := faults.Plan{Faults: []faults.Fault{
		{Kind: faults.WakeLatency, TaskID: -1, Core: -1, At: sched.Start, Delay: 0.02},
	}}
	clean, err := Execute(sched, tasks, sys, faults.Plan{}, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(sched, tasks, sys, plan, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Sim.Schedule.Cores, clean.Sim.Schedule.Cores) {
		t.Fatal("a wake-latency fault on a leak-free memory changed the executed schedule")
	}
	if res.WakeStallEnergy > 0 || !almostEq(res.Energy, clean.Energy, 1e-12) {
		t.Fatalf("stall energy %g, energy %.15g vs fault-free %.15g", res.WakeStallEnergy, res.Energy, clean.Energy)
	}
}
