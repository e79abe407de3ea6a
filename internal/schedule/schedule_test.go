package schedule

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sdem/internal/power"
	"sdem/internal/task"
)

func testSystem() power.System {
	return power.System{
		Core:   power.Core{Static: 0.3, Beta: 1e-27, Lambda: 3, SpeedMax: power.MHz(2000), BreakEven: 0.010},
		Memory: power.Memory{Static: 4, BreakEven: 0.040},
		Cores:  4,
	}
}

func TestMergeIntervals(t *testing.T) {
	for _, tc := range []struct {
		in, want []Interval
	}{
		{[]Interval{{5, 7}, {0, 2}, {1.5, 3}, {7 + Tol/2, 9}}, []Interval{{0, 3}, {5, 9}}},
		// Unsorted, with intervals sharing a start: the longest wins
		// whichever order the sort leaves them in.
		{[]Interval{{4, 5}, {1, 2}, {4, 6}, {1, 1.5}, {8, 9}, {4, 4.5}}, []Interval{{1, 2}, {4, 6}, {8, 9}}},
	} {
		ivs := intervalsByStart(append([]Interval(nil), tc.in...))
		got := mergeInPlace(&ivs)
		if len(got) != len(tc.want) {
			t.Fatalf("merge %v = %v, want %v", tc.in, got, tc.want)
		}
		for i := range tc.want {
			if math.Abs(got[i].Start-tc.want[i].Start) > Tol || math.Abs(got[i].End-tc.want[i].End) > Tol {
				t.Errorf("merge %v [%d] = %v, want %v", tc.in, i, got[i], tc.want[i])
			}
		}
	}
	var empty intervalsByStart
	if mergeInPlace(&empty) != nil {
		t.Error("merging nil must stay nil")
	}
}

func TestMemoryBusyAndCommonIdle(t *testing.T) {
	s := New(2, 0, 1.0)
	// Core 0 busy [0.1, 0.4], core 1 busy [0.3, 0.6]: memory busy
	// [0.1, 0.6], common idle = 0.1 + 0.4 = 0.5.
	s.Add(0, Segment{TaskID: 1, Start: 0.1, End: 0.4, Speed: 1e9})
	s.Add(1, Segment{TaskID: 2, Start: 0.3, End: 0.6, Speed: 1e9})
	s.Normalize()
	busy := s.MemoryBusy()
	if len(busy) != 1 || math.Abs(busy[0].Start-0.1) > Tol || math.Abs(busy[0].End-0.6) > Tol {
		t.Errorf("memory busy = %v, want [{0.1 0.6}]", busy)
	}
	if got := s.CommonIdle(); math.Abs(got-0.5) > Tol {
		t.Errorf("common idle = %g, want 0.5", got)
	}
}

func TestValidateHappyPath(t *testing.T) {
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: 0.5, Workload: 1e8},
		{ID: 2, Release: 0.2, Deadline: 1, Workload: 2e8},
	}
	s := New(2, 0, 1)
	s.Add(0, Segment{TaskID: 1, Start: 0, End: 0.2, Speed: 5e8})
	s.Add(1, Segment{TaskID: 2, Start: 0.2, End: 0.6, Speed: 5e8})
	s.Normalize()
	if err := s.Validate(tasks, ValidateOptions{NonPreemptive: true, SpeedMax: 1e9}); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	tasks := task.Set{{ID: 1, Release: 0.1, Deadline: 0.5, Workload: 1e8}}
	mk := func() *Schedule {
		s := New(1, 0, 1)
		s.Add(0, Segment{TaskID: 1, Start: 0.1, End: 0.3, Speed: 5e8})
		return s
	}
	cases := []struct {
		name string
		mut  func(*Schedule)
	}{
		{"early start", func(s *Schedule) { s.Cores[0][0].Start = 0.05 }},
		{"deadline miss", func(s *Schedule) { s.Cores[0][0].End = 0.6 }},
		{"short workload", func(s *Schedule) { s.Cores[0][0].Speed = 1e8 }},
		{"over cap", func(s *Schedule) {
			s.Cores[0][0].Speed = 5e9
			s.Cores[0][0].End = 0.12
		}},
		{"negative speed", func(s *Schedule) { s.Cores[0][0].Speed = -1 }},
		{"unknown task", func(s *Schedule) { s.Cores[0][0].TaskID = 99 }},
		{"outside horizon", func(s *Schedule) { s.End = 0.2 }},
		{"overlap", func(s *Schedule) {
			s.Cores[0][0].Speed = 2.5e8
			s.Add(0, Segment{TaskID: 1, Start: 0.2, End: 0.4, Speed: 2.5e8})
			// Overlapping [0.1,0.3] and [0.2,0.4].
		}},
	}
	for _, tc := range cases {
		s := mk()
		tc.mut(s)
		s.Normalize()
		if err := s.Validate(tasks, ValidateOptions{SpeedMax: 1e9}); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestValidateMigrationAndPreemption(t *testing.T) {
	tasks := task.Set{{ID: 1, Release: 0, Deadline: 1, Workload: 2e8}}
	s := New(2, 0, 1)
	s.Add(0, Segment{TaskID: 1, Start: 0, End: 0.2, Speed: 5e8})
	s.Add(1, Segment{TaskID: 1, Start: 0.2, End: 0.4, Speed: 5e8})
	s.Normalize()
	if err := s.Validate(tasks, ValidateOptions{}); err == nil {
		t.Error("migration across cores must be rejected")
	}

	s = New(1, 0, 1)
	s.Add(0, Segment{TaskID: 1, Start: 0, End: 0.2, Speed: 5e8})
	s.Add(0, Segment{TaskID: 1, Start: 0.5, End: 0.7, Speed: 5e8})
	s.Normalize()
	if err := s.Validate(tasks, ValidateOptions{}); err != nil {
		t.Errorf("preemptive split should pass default validation: %v", err)
	}
	if err := s.Validate(tasks, ValidateOptions{NonPreemptive: true}); err == nil {
		t.Error("preemptive split must fail NonPreemptive validation")
	}

	// Abutting equal segments still count as non-preemptive.
	s = New(1, 0, 1)
	s.Add(0, Segment{TaskID: 1, Start: 0, End: 0.2, Speed: 5e8})
	s.Add(0, Segment{TaskID: 1, Start: 0.2, End: 0.4, Speed: 5e8})
	s.Normalize()
	if err := s.Validate(tasks, ValidateOptions{NonPreemptive: true}); err != nil {
		t.Errorf("abutting segments should pass NonPreemptive validation: %v", err)
	}
}

func TestAuditSingleSegment(t *testing.T) {
	sys := testSystem()
	s := New(1, 0, 1)
	speed := power.MHz(1000)
	s.Add(0, Segment{TaskID: 1, Start: 0.2, End: 0.7, Speed: speed})
	s.Normalize()
	s.CorePolicy = SleepBreakEven
	s.MemoryPolicy = SleepBreakEven

	b := Audit(s, sys)
	wantDyn := sys.Core.Dynamic(speed) * 0.5
	if !almostEqual(b.CoreDynamic, wantDyn, 1e-9) {
		t.Errorf("core dynamic = %g, want %g", b.CoreDynamic, wantDyn)
	}
	// Core static: 0.5 s executing; both gaps (0.2 and 0.3 s) exceed the
	// 10 ms break-even, so they sleep at α·ξ each.
	wantStatic := sys.Core.Static * 0.5
	if !almostEqual(b.CoreStatic, wantStatic, 1e-9) {
		t.Errorf("core static = %g, want %g", b.CoreStatic, wantStatic)
	}
	wantTrans := 2 * sys.Core.Static * sys.Core.BreakEven
	if !almostEqual(b.CoreTransition, wantTrans, 1e-9) {
		t.Errorf("core transition = %g, want %g", b.CoreTransition, wantTrans)
	}
	// Memory: busy 0.5 s, two gaps of 0.2/0.3 s ≥ 40 ms break-even.
	if !almostEqual(b.MemoryStatic, 4*0.5, 1e-9) {
		t.Errorf("memory static = %g, want 2", b.MemoryStatic)
	}
	if !almostEqual(b.MemoryTransition, 2*4*0.040, 1e-9) {
		t.Errorf("memory transition = %g, want %g", b.MemoryTransition, 2*4*0.040)
	}
	if !almostEqual(b.MemorySleep, 0.5, 1e-9) {
		t.Errorf("memory sleep = %g, want 0.5", b.MemorySleep)
	}
	if b.MemorySleeps != 2 || b.CoreSleeps != 2 {
		t.Errorf("sleep counts = (%d cores, %d memory), want (2, 2)", b.CoreSleeps, b.MemorySleeps)
	}
}

func TestAuditSleepPolicies(t *testing.T) {
	sys := testSystem()
	mk := func(cp, mp SleepPolicy) Breakdown {
		s := New(1, 0, 1)
		s.Add(0, Segment{TaskID: 1, Start: 0, End: 0.5, Speed: power.MHz(800)})
		s.Normalize()
		s.CorePolicy, s.MemoryPolicy = cp, mp
		return Audit(s, sys)
	}

	never := mk(SleepNever, SleepNever)
	always := mk(SleepAlways, SleepAlways)
	breakeven := mk(SleepBreakEven, SleepBreakEven)

	// Never: memory static over the whole horizon.
	if !almostEqual(never.MemoryStatic, 4*1.0, 1e-9) {
		t.Errorf("never: memory static = %g, want 4", never.MemoryStatic)
	}
	if never.MemoryTransition != 0 || never.MemorySleep != 0 {
		t.Error("never must not sleep")
	}
	// Always: one trailing gap, one transition, no idle static.
	if !almostEqual(always.MemoryStatic, 4*0.5, 1e-9) {
		t.Errorf("always: memory static = %g, want 2", always.MemoryStatic)
	}
	if !almostEqual(always.MemoryTransition, 4*0.040, 1e-9) {
		t.Errorf("always: memory transition = %g", always.MemoryTransition)
	}
	// Break-even equals always here because the 0.5 s gap exceeds ξ_m.
	if !almostEqual(breakeven.Total(), always.Total(), 1e-9) {
		t.Errorf("break-even (%g) should equal always (%g) for long gaps", breakeven.Total(), always.Total())
	}

	// Short-gap case: gap of 20 ms < ξ_m = 40 ms. Always pays the full
	// transition (worse than idling); break-even idles.
	mkShort := func(mp SleepPolicy) Breakdown {
		s := New(1, 0, 0.52)
		s.Add(0, Segment{TaskID: 1, Start: 0, End: 0.5, Speed: power.MHz(800)})
		s.Normalize()
		s.CorePolicy = SleepNever
		s.MemoryPolicy = mp
		return Audit(s, sys)
	}
	shortAlways := mkShort(SleepAlways)
	shortBE := mkShort(SleepBreakEven)
	if shortAlways.MemoryTransition <= shortBE.MemoryTransition {
		t.Error("always should pay a transition on a short gap")
	}
	if shortBE.Total() >= shortAlways.Total() {
		t.Errorf("break-even (%g) must beat always (%g) on short gaps", shortBE.Total(), shortAlways.Total())
	}
}

func TestAuditUnusedCores(t *testing.T) {
	sys := testSystem()
	s := New(4, 0, 1)
	s.Add(0, Segment{TaskID: 1, Start: 0, End: 1, Speed: power.MHz(1000)})
	s.Normalize()

	s.CorePolicy = SleepNever
	idleStatic := Audit(s, sys).CoreStatic
	s.CorePolicy = SleepBreakEven
	sleepStatic := Audit(s, sys).CoreStatic
	// Three unused cores idle for 1 s each under SleepNever.
	if !almostEqual(idleStatic-sleepStatic, 3*sys.Core.Static, 1e-9) {
		t.Errorf("unused-core static difference = %g, want %g", idleStatic-sleepStatic, 3*sys.Core.Static)
	}
}

func TestAuditEmptySchedule(t *testing.T) {
	sys := testSystem()
	s := New(2, 0, 1)
	s.MemoryPolicy = SleepBreakEven
	s.CorePolicy = SleepBreakEven
	b := Audit(s, sys)
	if b.Total() != 0 {
		t.Errorf("empty schedule with sleeping policies must cost 0, got %g", b.Total())
	}
	if !almostEqual(b.MemorySleep, 1, 1e-9) {
		t.Errorf("memory should sleep the whole horizon, got %g", b.MemorySleep)
	}
	s.MemoryPolicy = SleepNever
	s.CorePolicy = SleepNever
	b = Audit(s, sys)
	want := sys.Memory.Static*1 + 2*sys.Core.Static*1
	if !almostEqual(b.Total(), want, 1e-9) {
		t.Errorf("empty never-sleep schedule = %g, want %g", b.Total(), want)
	}
}

func TestAuditAlphaZeroCore(t *testing.T) {
	sys := testSystem()
	sys.Core.Static = 0
	s := New(1, 0, 1)
	s.Add(0, Segment{TaskID: 1, Start: 0, End: 0.3, Speed: power.MHz(900)})
	s.Normalize()
	s.CorePolicy = SleepNever // even never-sleep costs nothing when α=0
	b := Audit(s, sys)
	if b.CoreStatic != 0 || b.CoreTransition != 0 {
		t.Errorf("α=0 core charged static %g transition %g", b.CoreStatic, b.CoreTransition)
	}
}

func TestPropertyAuditNonNegativeAndMonotone(t *testing.T) {
	// Property: audited components are non-negative, and SleepNever is
	// never cheaper than SleepBreakEven (gap-wise optimality).
	sys := testSystem()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New(3, 0, 2)
		cur := [3]float64{}
		for i := 0; i < 10; i++ {
			c := r.Intn(3)
			start := cur[c] + r.Float64()*0.2
			end := start + 0.01 + r.Float64()*0.2
			if end > 2 {
				continue
			}
			s.Add(c, Segment{TaskID: i, Start: start, End: end, Speed: power.MHz(700 + r.Float64()*1200)})
			cur[c] = end
		}
		s.Normalize()
		s.CorePolicy, s.MemoryPolicy = SleepBreakEven, SleepBreakEven
		be := Audit(s, sys)
		s.CorePolicy, s.MemoryPolicy = SleepNever, SleepNever
		nv := Audit(s, sys)
		s.CorePolicy, s.MemoryPolicy = SleepAlways, SleepAlways
		al := Audit(s, sys)
		if be.CoreDynamic < 0 || be.CoreStatic < 0 || be.MemoryStatic < 0 || be.MemoryTransition < 0 {
			return false
		}
		// Break-even is gap-wise optimal: no worse than either extreme.
		return be.Total() <= nv.Total()+1e-9 && be.Total() <= al.Total()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCommonIdlePlusBusyEqualsHorizon(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New(2, 0, 3)
		for i := 0; i < 6; i++ {
			start := r.Float64() * 2.5
			s.Add(r.Intn(2), Segment{TaskID: i, Start: start, End: start + r.Float64()*0.5, Speed: 1e9})
		}
		s.Normalize()
		var busy float64
		for _, iv := range s.MemoryBusy() {
			busy += iv.Len()
		}
		return math.Abs(busy+s.CommonIdle()-3) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSleepPolicyString(t *testing.T) {
	if SleepNever.String() != "never" || SleepAlways.String() != "always" ||
		SleepBreakEven.String() != "break-even" || SleepPolicy(9).String() != "SleepPolicy(9)" {
		t.Error("SleepPolicy.String mismatch")
	}
}

func TestSegmentCycles(t *testing.T) {
	sg := Segment{Start: 1, End: 3, Speed: 5e8}
	if sg.Cycles() != 1e9 {
		t.Errorf("Cycles = %g, want 1e9", sg.Cycles())
	}
}

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	return diff <= tol*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
}

// TestDecideMatchesGapCharging checks the Decision provenance record
// against the audit's gap charging it claims to replay: for every
// policy, gap class and a leaky and a leak-free component, Sleeps is
// whether chargeCoreGap and chargeMemGap count a sleep cycle, NetGain
// equals the idle-active cost minus GapEnergy, and Margin is the
// break-even distance.
func TestDecideMatchesGapCharging(t *testing.T) {
	const alpha, xi = 0.5, 0.02
	for _, a := range []float64{alpha, 0} {
		for _, pol := range []SleepPolicy{SleepNever, SleepAlways, SleepBreakEven} {
			for _, g := range []float64{0, 1e-12, 0.001, xi, 0.05, 3} {
				d := pol.Decide(g, a, xi)
				var b Breakdown
				chargeCoreGap(&b, g, power.Core{Static: a, BreakEven: xi}, pol)
				chargeMemGap(&b, g, power.Memory{Static: a, BreakEven: xi}, pol)
				if d.Sleeps != (b.CoreSleeps == 1) || d.Sleeps != (b.MemorySleeps == 1) {
					t.Errorf("α %g %v Decide(%g).Sleeps = %v, audit charges %d core / %d memory sleeps",
						a, pol, g, d.Sleeps, b.CoreSleeps, b.MemorySleeps)
				}
				if got, want := d.NetGain, a*g-pol.GapEnergy(g, a, xi); math.Abs(got-want) > 1e-15 {
					t.Errorf("α %g %v Decide(%g).NetGain = %g, want %g", a, pol, g, got, want)
				}
				if d.Margin != g-xi {
					t.Errorf("α %g %v Decide(%g).Margin = %g, want %g", a, pol, g, d.Margin, g-xi)
				}
			}
		}
	}
	// A leak-free component never pays a transition, so no policy puts it
	// to sleep, however long the gap.
	for _, pol := range []SleepPolicy{SleepNever, SleepAlways, SleepBreakEven} {
		if d := pol.Decide(0.5, 0, 0.04); d.Sleeps || d.NetGain != 0 {
			t.Errorf("%v on α = 0 (g 0.5, ξ 0.04) = %+v, want no sleep at zero gain", pol, d)
		}
	}
	// The paper's headline quantities: a break-even sleep past xi saves
	// alpha*(g-xi); an always-sleep below xi loses energy.
	if d := SleepBreakEven.Decide(0.05, alpha, xi); !d.Sleeps || math.Abs(d.NetGain-alpha*(0.05-xi)) > 1e-15 {
		t.Errorf("break-even sleep gain = %+v, want %g", d, alpha*(0.05-xi))
	}
	if d := SleepAlways.Decide(0.001, alpha, xi); !d.Sleeps || d.NetGain >= 0 {
		t.Errorf("always-sleep below break-even should lose energy: %+v", d)
	}
	if d := SleepNever.Decide(1, alpha, xi); d.Sleeps || d.NetGain != 0 {
		t.Errorf("never-sleep should idle at zero gain: %+v", d)
	}
}
