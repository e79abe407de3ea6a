package task

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFilledSpeed(t *testing.T) {
	tk := Task{Release: 0.1, Deadline: 0.3, Workload: 4e6}
	if got, want := tk.FilledSpeed(), 2e7; math.Abs(got-want) > 1 {
		t.Errorf("filled speed = %g, want %g", got, want)
	}
	empty := Task{Release: 1, Deadline: 1, Workload: 5}
	if !math.IsInf(empty.FilledSpeed(), 1) {
		t.Error("positive work in empty window must have infinite filled speed")
	}
	zero := Task{Release: 1, Deadline: 1, Workload: 0}
	if zero.FilledSpeed() != 0 {
		t.Error("zero work must have zero filled speed")
	}
}

func TestValidate(t *testing.T) {
	good := Task{ID: 1, Release: 0, Deadline: 1, Workload: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("good task rejected: %v", err)
	}
	bad := []Task{
		{ID: 2, Release: 1, Deadline: 0, Workload: 1},
		{ID: 3, Release: 0, Deadline: 1, Workload: -1},
		{ID: 4, Release: 0, Deadline: 0, Workload: 1},
		{ID: 5, Release: math.NaN(), Deadline: 1, Workload: 1},
	}
	for _, tk := range bad {
		if err := tk.Validate(); err == nil {
			t.Errorf("task %d should be invalid", tk.ID)
		}
	}
	dup := Set{{ID: 1, Deadline: 1, Workload: 1}, {ID: 1, Deadline: 2, Workload: 1}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate IDs should be rejected")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		set  Set
		want Model
	}{
		{"empty", Set{}, ModelEmpty},
		{"single", Set{{ID: 1, Deadline: 1, Workload: 1}}, ModelCommonDeadline},
		{
			"common both",
			Set{{ID: 1, Deadline: 2, Workload: 1}, {ID: 2, Deadline: 2, Workload: 3}},
			ModelCommonDeadline,
		},
		{
			"common release",
			Set{{ID: 1, Deadline: 2, Workload: 1}, {ID: 2, Deadline: 5, Workload: 3}},
			ModelCommonRelease,
		},
		{
			"agreeable",
			Set{
				{ID: 1, Release: 0, Deadline: 2, Workload: 1},
				{ID: 2, Release: 1, Deadline: 4, Workload: 3},
				{ID: 3, Release: 3, Deadline: 4, Workload: 1},
			},
			ModelAgreeable,
		},
		{
			"general (nested)",
			Set{
				{ID: 1, Release: 0, Deadline: 10, Workload: 1},
				{ID: 2, Release: 2, Deadline: 5, Workload: 3},
			},
			ModelGeneral,
		},
	}
	for _, tc := range cases {
		if got := tc.set.Classify(); got != tc.want {
			t.Errorf("%s: Classify() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestModelString(t *testing.T) {
	for m, want := range map[Model]string{
		ModelEmpty:          "empty",
		ModelCommonDeadline: "common-release-and-deadline",
		ModelCommonRelease:  "common-release",
		ModelAgreeable:      "agreeable-deadline",
		ModelGeneral:        "general",
		Model(42):           "Model(42)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Model(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestSortStability(t *testing.T) {
	s := Set{
		{ID: 3, Release: 0, Deadline: 5, Workload: 1},
		{ID: 1, Release: 0, Deadline: 2, Workload: 1},
		{ID: 2, Release: 1, Deadline: 2, Workload: 1},
	}
	s.SortByDeadline()
	if s[0].ID != 1 || s[1].ID != 2 || s[2].ID != 3 {
		t.Errorf("SortByDeadline order = %d,%d,%d", s[0].ID, s[1].ID, s[2].ID)
	}
	s.SortByRelease()
	if s[0].Release > s[1].Release || s[1].Release > s[2].Release {
		t.Error("SortByRelease not sorted")
	}
}

func TestSpanAndTotals(t *testing.T) {
	s := Set{
		{ID: 1, Release: 2, Deadline: 9, Workload: 5},
		{ID: 2, Release: 1, Deadline: 4, Workload: 3},
	}
	start, end := s.Span()
	if start != 1 || end != 9 {
		t.Errorf("Span = (%g, %g), want (1, 9)", start, end)
	}
	ws := s.Workloads()
	if len(ws) != 2 || ws[0] != 5 || ws[1] != 3 {
		t.Errorf("Workloads = %v", ws)
	}
	if a, b := (Set{}).Span(); a != 0 || b != 0 {
		t.Error("empty span must be (0,0)")
	}
}

func TestFeasible(t *testing.T) {
	s := Set{
		{ID: 1, Release: 0, Deadline: 1, Workload: 100}, // filled 100
		{ID: 2, Release: 0, Deadline: 2, Workload: 100}, // filled 50
	}
	if !s.Feasible(100) {
		t.Error("set should be feasible at s_up = 100")
	}
	if s.Feasible(99) {
		t.Error("set should be infeasible at s_up = 99")
	}
	if !s.Feasible(0) {
		t.Error("zero speedMax means unbounded")
	}
}

func randomSet(r *rand.Rand, n int) Set {
	s := make(Set, n)
	for i := range s {
		rel := r.Float64() * 10
		s[i] = Task{
			ID:       i,
			Release:  rel,
			Deadline: rel + 0.1 + r.Float64()*10,
			Workload: 1 + r.Float64()*100,
		}
	}
	return s
}

func TestPropertyAgreeableDetection(t *testing.T) {
	// Property: a set constructed with sorted (release, deadline) pairs is
	// agreeable; swapping deadlines of two tasks with strictly ordered
	// releases and strictly reversed deadlines breaks it.
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw%8)
		rels := make([]float64, n)
		dls := make([]float64, n)
		for i := range rels {
			rels[i] = float64(i) + r.Float64()*0.5
			dls[i] = rels[i] + 1 + float64(i)*0.1
		}
		s := make(Set, n)
		for i := range s {
			s[i] = Task{ID: i, Release: rels[i], Deadline: dls[i], Workload: 1}
		}
		if !s.IsAgreeable() {
			return false
		}
		// Break the property: give the earliest-released task a deadline
		// strictly after everyone else's.
		s[0].Deadline = dls[n-1] + 5
		return !s.IsAgreeable()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertySortByDeadlineIsSorted(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, int(nRaw%20)+1)
		s.SortByDeadline()
		for i := 1; i < len(s); i++ {
			if s[i].Deadline < s[i-1].Deadline {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCloneIsIndependent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 5)
		c := s.Clone()
		c[0].Workload = -999
		return s[0].Workload != -999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
