package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamValidate(t *testing.T) {
	good := PeriodicStream{ID: 1, Period: 0.1, Window: 0.05, Workload: 1e6}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []PeriodicStream{
		{ID: 1, Period: 0, Workload: 1},
		{ID: 2, Period: 1, Window: -1},
		{ID: 3, Period: 1, Workload: -1},
		{ID: 4, Period: 1, Offset: -1},
		{ID: 5, Period: 1, Jitter: -1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("stream %d should be invalid", s.ID)
		}
	}
	dup := PeriodicSystem{{ID: 1, Period: 1}, {ID: 1, Period: 2}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate IDs should be rejected")
	}
}

func TestImplicitDeadline(t *testing.T) {
	s := PeriodicStream{ID: 1, Period: 0.2, Workload: 1e6}
	set, err := PeriodicSystem{s}.Expand(0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range set {
		if math.Abs(tk.Window()-0.2) > 1e-12 {
			t.Errorf("implicit deadline: window = %g, want period", tk.Window())
		}
	}
}

func TestExpandPeriodic(t *testing.T) {
	sys := PeriodicSystem{
		{ID: 1, Name: "a", Period: 0.1, Window: 0.05, Workload: 1e6},
		{ID: 2, Name: "b", Period: 0.25, Window: 0.2, Workload: 2e6, Offset: 0.05},
	}
	set, err := sys.Expand(0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// PeriodicStream 1: releases 0, .1, .2, .3, .4 → 5 jobs; stream 2: .05, .3 →
	// 2 jobs.
	if len(set) != 7 {
		t.Fatalf("expanded %d jobs, want 7", len(set))
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	// Release-sorted.
	for i := 1; i < len(set); i++ {
		if set[i].Release < set[i-1].Release {
			t.Fatal("expansion must be release-sorted")
		}
	}
}

func TestExpandJitterDeterministic(t *testing.T) {
	sys := PeriodicSystem{{ID: 1, Period: 0.1, Window: 0.05, Workload: 1e6, Jitter: 0.5}}
	a, _ := sys.Expand(2, 42)
	b, _ := sys.Expand(2, 42)
	c, _ := sys.Expand(2, 43)
	if len(a) != len(b) {
		t.Fatal("same seed, different job count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce identical expansion")
		}
	}
	// Jittered releases are strictly sparser than periodic.
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i].Release != c[i].Release {
				same = false
			}
		}
		if same {
			t.Error("different seeds should produce different jitter")
		}
	}
}

func TestUtilizationAndHyperperiod(t *testing.T) {
	sys := PeriodicSystem{
		{ID: 1, Period: 0.010, Workload: 1e6}, // 1e8 cycles/s
		{ID: 2, Period: 0.025, Workload: 5e6}, // 2e8 cycles/s
	}
	if got := sys.Utilization(1e9); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("utilization = %g, want 0.3", got)
	}
	if got := sys.Hyperperiod(1e-3); math.Abs(got-0.05) > 1e-9 {
		t.Errorf("hyperperiod = %g, want 0.05", got)
	}
	if (PeriodicSystem{}).Hyperperiod(1e-3) != 0 {
		t.Error("empty hyperperiod must be 0")
	}
	// A sporadic stream has no period to repeat: it must not stretch the
	// strictly periodic part's LCM (0.05 s, not lcm(0.05, 0.25) = 0.25 s).
	mixed := append(sys, PeriodicStream{ID: 3, Period: 0.25, Workload: 1e6, Jitter: 0.3})
	if got := mixed.Hyperperiod(1e-3); math.Abs(got-0.05) > 1e-9 {
		t.Errorf("hyperperiod with a sporadic stream = %g, want 0.05", got)
	}
	if got := (PeriodicSystem{mixed[2]}).Hyperperiod(1e-3); got != 0 {
		t.Errorf("all-sporadic hyperperiod = %g, want 0", got)
	}
}

func TestExpandGuards(t *testing.T) {
	if _, err := (PeriodicSystem{{ID: 1, Period: 1e-9, Workload: 1}}).Expand(10, 0); err == nil {
		t.Error("job-count explosion must be rejected")
	}
	if _, err := (PeriodicSystem{{ID: 1, Period: 1, Workload: 1}}).Expand(-1, 0); err == nil {
		t.Error("negative horizon must be rejected")
	}
}

func TestPropertyExpandRespectsHorizonAndCount(t *testing.T) {
	f := func(pRaw, hRaw uint16) bool {
		period := 0.01 + float64(pRaw%100)/100
		horizon := float64(hRaw%50) / 10
		sys := PeriodicSystem{{ID: 1, Period: period, Workload: 1e6}}
		set, err := sys.Expand(horizon, 0)
		if err != nil {
			return false
		}
		want := int(math.Ceil(horizon / period))
		if horizon == 0 {
			want = 0
		}
		// Accumulated release times can drift one ulp around exact
		// horizon/period ratios; allow ±1 job.
		if len(set) < want-1 || len(set) > want+1 {
			return false
		}
		for _, tk := range set {
			if tk.Release >= horizon {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
