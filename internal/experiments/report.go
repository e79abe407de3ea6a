package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"sdem/internal/commonrelease"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/stats"
	"sdem/internal/task"
)

// RenderSeries formats experiment series as an aligned text table with
// one row per sweep point.
func RenderSeries(series []Series) string {
	var b strings.Builder
	for _, s := range series {
		fmt.Fprintf(&b, "== %s ==\n", s.Name)
		fmt.Fprintf(&b, "%-10s %-18s %-18s %-18s %-18s %-18s %s\n",
			s.XLabel, "SDEM-ON vs MBKP", "SDEM-ON-Z vs MBKP", "MBKPS vs MBKP",
			"SDEM-ON impr", "SDEM-ON-Z impr", "misses")
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%-10.4g %-18s %-18s %-18s %-18s %-18s %d\n",
				p.X,
				stats.Percent(p.SDEMON.Mean),
				stats.Percent(p.SDEMONZ.Mean),
				stats.Percent(p.MBKPS.Mean),
				stats.Percent(p.Improvement.Mean),
				stats.Percent(p.ImprovementZ.Mean),
				p.Misses)
		}
		fmt.Fprintf(&b, "series average improvement over MBKPS: %s (α=0-planned: %s)\n\n",
			stats.Percent(seriesAvgImprovement(s)), stats.Percent(seriesAvgImprovementZ(s)))
	}
	return b.String()
}

func seriesAvgImprovement(s Series) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.Improvement.Mean
	}
	return sum / float64(len(s.Points))
}

func seriesAvgImprovementZ(s Series) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.ImprovementZ.Mean
	}
	return sum / float64(len(s.Points))
}

// AvgImprovement averages the SDEM-ON-over-MBKPS improvement across all
// points of all series — the paper's headline per-figure number.
func AvgImprovement(series []Series) float64 {
	var sum float64
	var n int
	for _, s := range series {
		for _, p := range s.Points {
			sum += p.Improvement.Mean
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RenderAblation formats the race-to-idle ablation.
func RenderAblation(points []AblationPoint) string {
	var b strings.Builder
	b.WriteString("== ablation: race to idle or not (savings vs MBKP) ==\n")
	fmt.Fprintf(&b, "%-12s %-18s %-18s %-18s\n", "x (s)", "race-to-idle", "critical-speed", "SDEM-ON")
	for _, p := range points {
		fmt.Fprintf(&b, "%-12.4g %-18s %-18s %-18s\n",
			p.X,
			stats.Percent(p.RaceToIdle.Mean),
			stats.Percent(p.CriticalSpeed.Mean),
			stats.Percent(p.SDEMON.Mean))
	}
	return b.String()
}

// Table3Row demonstrates one row of the paper's Table 3: how the optimal
// memory sleep decision changes with the break-even times.
type Table3Row struct {
	Name         string
	Xi, XiM      float64 // core / memory break-even (s)
	MemorySleeps int
	CoreSleeps   int
	BusyLen      float64
	Energy       float64
}

// Table3 constructs one common-release instance from the campaign seed
// and solves it under the four break-even regimes of Table 3, reporting
// the resulting sleep decisions. The default Config (Seed 1) reproduces
// the published table byte-for-byte.
func (c Config) Table3() ([]Table3Row, error) {
	c = c.withDefaults()
	r := rand.New(rand.NewSource(c.Seed)) //lint:allow randsource: one-off sample instance drawn directly from the plumbed campaign seed, not a sweep grid point
	tasks := make(task.Set, 4)
	for i := range tasks {
		tasks[i] = task.Task{
			ID:       i,
			Release:  0,
			Deadline: power.Milliseconds(10 + r.Float64()*110),
			Workload: 2e6 + r.Float64()*3e6,
		}
	}
	regimes := []struct {
		name    string
		xi, xiM float64
	}{
		{"Δm ≥ ξ, ξ_m (both sleep)", power.Milliseconds(0.5), power.Milliseconds(1)},
		{"ξ ≤ Δm < ξ_m (no memory sleep, s_c)", power.Milliseconds(1), 10},
		{"ξ_m ≤ Δm < ξ (memory sleeps, cores idle)", 10, power.Milliseconds(5)},
		{"Δm < ξ, ξ_m (no sleep anywhere, s_c)", 10, 10},
	}
	var rows []Table3Row
	for _, reg := range regimes {
		sys := power.DefaultSystem()
		sys.Core.BreakEven = reg.xi
		sys.Memory.BreakEven = reg.xiM
		sol, err := commonrelease.Solve(tasks, sys, nil)
		if err != nil {
			return nil, err
		}
		b := schedule.Audit(sol.Schedule, sys)
		rows = append(rows, Table3Row{
			Name:         reg.name,
			Xi:           reg.xi,
			XiM:          reg.xiM,
			MemorySleeps: b.MemorySleeps,
			CoreSleeps:   b.CoreSleeps,
			BusyLen:      sol.BusyLen,
			Energy:       sol.Energy,
		})
	}
	return rows, nil
}

// RenderTable3 formats the Table 3 demonstration.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("== Table 3: transition-overhead case selection ==\n")
	fmt.Fprintf(&b, "%-44s %-10s %-10s %-10s %-10s %-12s\n",
		"regime", "ξ (ms)", "ξ_m (ms)", "mem sleeps", "core sleeps", "busy (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-44s %-10.3g %-10.3g %-10d %-10d %-12.4g\n",
			r.Name, r.Xi*1e3, r.XiM*1e3, r.MemorySleeps, r.CoreSleeps, r.BusyLen*1e3)
	}
	return b.String()
}

// RenderCSV emits the series as CSV for external plotting: one row per
// (series, x) point with savings and confidence intervals.
func RenderCSV(series []Series) string {
	var b strings.Builder
	b.WriteString("series,x,sdemon_mean,sdemon_ci95,sdemonz_mean,mbkps_mean,mbkps_ci95,improvement_mean,improvement_ci95,misses\n")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%g,%g,%g,%g,%g,%g,%g,%g,%d\n",
				s.Name, p.X,
				p.SDEMON.Mean, p.SDEMON.CI95,
				p.SDEMONZ.Mean,
				p.MBKPS.Mean, p.MBKPS.CI95,
				p.Improvement.Mean, p.Improvement.CI95,
				p.Misses)
		}
	}
	return b.String()
}
