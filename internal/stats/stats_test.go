package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("mean = %g, want 5", got)
	}
	if got := StdDev(xs); math.Abs(got-2.138) > 0.001 {
		t.Errorf("stddev = %g, want ≈2.138", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate inputs must give 0")
	}
}

func TestCI95(t *testing.T) {
	xs := []float64{1, 1, 1, 1}
	if CI95(xs) != 0 {
		t.Error("constant samples have zero CI")
	}
	wide := []float64{0, 10}
	if CI95(wide) <= 0 {
		t.Error("spread samples must have positive CI")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.Mean != 2 || s.N != 3 || s.StdDev != 1 {
		t.Errorf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}

func TestSavingRatio(t *testing.T) {
	if got := SavingRatio(10, 8); got != 0.2 {
		t.Errorf("SavingRatio = %g, want 0.2", got)
	}
	if got := SavingRatio(0, 5); got != 0 {
		t.Errorf("zero base must give 0, got %g", got)
	}
	if got := SavingRatio(10, 12); got != -0.2 {
		t.Errorf("negative saving = %g, want -0.2", got)
	}
	if Percent(0.2345) != "23.45%" {
		t.Errorf("Percent formatting: %s", Percent(0.2345))
	}
}

func TestQuantile(t *testing.T) {
	odd := []float64{1, 2, 3, 4, 5}
	even := []float64{1, 2, 3, 4}
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"q=0 is the minimum", odd, 0, 1},
		{"q=1 is the maximum", odd, 1, 5},
		{"odd median", odd, 0.5, 3},
		{"even median is the lower middle", even, 0.5, 2},
		{"p99 of a short slice is its maximum", even, 0.99, 4},
	}
	for _, c := range cases {
		if got := Quantile(c.xs, c.q); got != c.want {
			t.Errorf("%s: Quantile(%v, %g) = %g, want %g", c.name, c.xs, c.q, got, c.want)
		}
	}
}

func TestPropertyMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e15 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return m >= lo-1e-9*math.Abs(lo)-1e-9 && m <= hi+1e-9*math.Abs(hi)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyStdDevShiftInvariant(t *testing.T) {
	f := func(seed uint32) bool {
		xs := []float64{float64(seed % 100), float64(seed % 37), float64(seed % 11), 5}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + 1000
		}
		return math.Abs(StdDev(xs)-StdDev(shifted)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
