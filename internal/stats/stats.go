// Package stats provides the small statistics toolbox used by the
// experiment harness: means, standard deviations, confidence intervals
// and multi-seed aggregation matching the paper's "10 random cases per
// data point" protocol (§8.2), plus the nearest-rank quantile of the
// sdemload and sdemtrace reports.
package stats

import (
	"fmt"
	"math"

	"sdem/internal/numeric"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (0 for fewer than two
// points).
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(n))
}

// Summary aggregates one experiment data point across seeds.
type Summary struct {
	Mean   float64
	StdDev float64
	CI95   float64
	N      int
}

// Summarize builds a Summary from samples.
func Summarize(xs []float64) Summary {
	return Summary{Mean: Mean(xs), StdDev: StdDev(xs), CI95: CI95(xs), N: len(xs)}
}

// String renders "mean ± ci (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean, s.CI95, s.N)
}

// SavingRatio returns (base − x)/base, the paper's energy-saving metric,
// or 0 when base is 0.
func SavingRatio(base, x float64) float64 {
	if numeric.IsZero(base, 0) {
		return 0
	}
	return (base - x) / base
}

// Quantile reads the q-quantile from sorted xs by nearest rank: the
// smallest element with at least a q share of xs at or below it, so it
// is always one of the samples. It returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// Percent formats a ratio as a percentage string.
func Percent(r float64) string { return fmt.Sprintf("%.2f%%", 100*r) }
