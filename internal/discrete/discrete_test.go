package discrete

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sdem/internal/commonrelease"
	"sdem/internal/numeric"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
)

func TestLadderValidate(t *testing.T) {
	if err := CortexA57Ladder().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Ladder{{}, {0, 1}, {2, 1}, {1, 1}}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("ladder %d should be invalid: %v", i, l)
		}
	}
}

func TestBracket(t *testing.T) {
	l := Ladder{1e9, 2e9, 3e9}
	cases := []struct {
		s      float64
		lo, hi float64
		ok     bool
	}{
		{0.5e9, 1e9, 1e9, true}, // below bottom: clamp pair
		{1e9, 1e9, 1e9, true},   // exact bottom
		{1.5e9, 1e9, 2e9, true}, // interior
		{2e9, 2e9, 2e9, true},   // exact middle
		{2.7e9, 2e9, 3e9, true}, // interior upper
		{3e9, 3e9, 3e9, true},   // exact top
		{3.5e9, 0, 0, false},    // above top
	}
	for _, tc := range cases {
		lo, hi, ok := l.Bracket(tc.s)
		if ok != tc.ok || (ok && (lo != tc.lo || hi != tc.hi)) {
			t.Errorf("Bracket(%g) = (%g, %g, %v), want (%g, %g, %v)", tc.s, lo, hi, ok, tc.lo, tc.hi, tc.ok)
		}
	}
}

func mkSchedule(speed float64) (*schedule.Schedule, task.Set) {
	tasks := task.Set{{ID: 1, Release: 0, Deadline: 1, Workload: speed * 0.5}}
	s := schedule.New(1, 0, 1)
	s.Add(0, schedule.Segment{TaskID: 1, Start: 0.1, End: 0.6, Speed: speed})
	s.Normalize()
	return s, tasks
}

func TestQuantizePreservesWorkAndFeasibility(t *testing.T) {
	ladder := CortexA57Ladder()
	for _, speed := range []float64{7.3e8, 1.0e9, 1.3e9, 1.85e9, 1.9e9, 5e8} {
		s, tasks := mkSchedule(speed)
		q, err := Quantize(s, ladder)
		if err != nil {
			t.Fatalf("speed %g: %v", speed, err)
		}
		if err := q.Validate(tasks, schedule.ValidateOptions{SpeedMax: ladder.MaxLevel()}); err != nil {
			t.Errorf("speed %g: quantized schedule invalid: %v", speed, err)
		}
		// Every emitted speed is a ladder level.
		for _, segs := range q.Cores {
			for _, sg := range segs {
				onLadder := false
				for _, f := range ladder {
					if math.Abs(sg.Speed-f) < 1 {
						onLadder = true
					}
				}
				if !onLadder {
					t.Errorf("speed %g: emitted off-ladder speed %g", speed, sg.Speed)
				}
			}
		}
	}
}

func TestQuantizeRejectsOverTop(t *testing.T) {
	s, _ := mkSchedule(2.5e9)
	if _, err := Quantize(s, CortexA57Ladder()); err == nil {
		t.Error("speeds above the top level must be rejected")
	}
}

func TestTwoLevelSplitIsEnergyOptimal(t *testing.T) {
	// For a convex power function, the two-level split beats running the
	// whole segment at the upper level and matches the theoretical
	// θ·P(h) + (1−θ)·P(l) average power.
	sys := power.DefaultSystem()
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0
	sys.Memory.Static = 0 // isolate the core term
	ladder := CortexA57Ladder()
	s, _ := mkSchedule(1.2e9) // between 1.1 and 1.3 GHz
	q, err := Quantize(s, ladder)
	if err != nil {
		t.Fatal(err)
	}
	eCont := schedule.Audit(s, sys).Total()
	eQuant := schedule.Audit(q, sys).Total()
	if eQuant < eCont {
		t.Errorf("discrete (%g) cannot beat continuous (%g)", eQuant, eCont)
	}
	// Upper-level-only realization: same work at 1.3 GHz, shorter busy.
	sUp := schedule.New(1, 0, 1)
	sUp.Add(0, schedule.Segment{TaskID: 1, Start: 0.1, End: 0.1 + 1.2e9*0.5/1.3e9, Speed: 1.3e9})
	sUp.Normalize()
	eUp := schedule.Audit(sUp, sys).Total()
	if eQuant >= eUp {
		t.Errorf("two-level split (%g) should beat single upper level (%g)", eQuant, eUp)
	}
	// Exact expected energy: θ·dur at h plus (1−θ)·dur at l.
	theta := (1.2e9 - 1.1e9) / (1.3e9 - 1.1e9)
	want := (sys.Core.Power(1.3e9)*theta + sys.Core.Power(1.1e9)*(1-theta)) * 0.5
	if math.Abs(eQuant-want) > 1e-9*want {
		t.Errorf("split energy %g, want %g", eQuant, want)
	}
}

// energyPenalty quantizes the schedule and returns the relative increase
// of audited energy, (E_discrete − E_continuous)/E_continuous — the gap
// §3 argues shrinks as ladders densify.
func energyPenalty(s *schedule.Schedule, ladder Ladder, audit func(*schedule.Schedule) float64) (float64, error) {
	q, err := Quantize(s, ladder)
	if err != nil {
		return 0, err
	}
	base := audit(s)
	if numeric.IsZero(base, 0) {
		return 0, nil
	}
	return (audit(q) - base) / base, nil
}

func TestEnergyPenaltyShrinksWithDenserLadder(t *testing.T) {
	sys := power.DefaultSystem()
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: power.Milliseconds(60), Workload: 3e6},
		{ID: 2, Release: 0, Deadline: power.Milliseconds(90), Workload: 4.4e6},
		{ID: 3, Release: 0, Deadline: power.Milliseconds(120), Workload: 2.7e6},
	}
	sol, err := commonrelease.Solve(tasks, sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	audit := func(s *schedule.Schedule) float64 { return schedule.Audit(s, sys).Total() }
	prev := math.Inf(1)
	for _, n := range []int{2, 4, 8, 32} {
		ladder, err := UniformLadder(1e8, 1.9e9, n)
		if err != nil {
			t.Fatal(err)
		}
		pen, err := energyPenalty(sol.Schedule, ladder, audit)
		if err != nil {
			t.Fatal(err)
		}
		if pen < -1e-9 {
			t.Errorf("n=%d: negative penalty %g", n, pen)
		}
		if pen > prev+1e-9 {
			t.Errorf("n=%d: penalty %g grew from %g", n, pen, prev)
		}
		prev = pen
	}
	if prev > 0.02 {
		t.Errorf("32-level ladder penalty %g should be under 2%%", prev)
	}
}

func TestUniformLadder(t *testing.T) {
	l, err := UniformLadder(1e8, 1e9, 10)
	if err != nil || len(l) != 10 || l[0] != 1e8 || l[9] != 1e9 {
		t.Errorf("UniformLadder = %v, %v", l, err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := UniformLadder(1e9, 1e8, 3); err == nil {
		t.Error("inverted range must be rejected")
	}
	if _, err := UniformLadder(0, 1e9, 3); err == nil {
		t.Error("zero lo must be rejected")
	}
	one, err := UniformLadder(1e8, 1e9, 1)
	if err != nil || len(one) != 1 || one[0] != 1e9 {
		t.Errorf("single-level ladder = %v, %v", one, err)
	}
}

func TestPropertyQuantizePreservesWork(t *testing.T) {
	ladder := CortexA57Ladder()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := schedule.New(2, 0, 2)
		var want float64
		for i := 0; i < 6; i++ {
			start := r.Float64() * 1.5
			dur := 0.05 + r.Float64()*0.3
			speed := 2e8 + r.Float64()*1.7e9
			s.Add(i%2, schedule.Segment{TaskID: i, Start: start, End: start + dur, Speed: speed})
			want += speed * dur
		}
		s.Normalize()
		q, err := Quantize(s, ladder)
		if err != nil {
			return false
		}
		var got float64
		for _, segs := range q.Cores {
			for _, sg := range segs {
				got += sg.Cycles()
			}
		}
		return math.Abs(got-want) < 1e-6*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
