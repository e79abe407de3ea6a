// Benchmarks regenerating every table and figure of the paper's
// evaluation (§8). Each figure bench runs a reduced-scale sweep per
// iteration and reports the headline reproduction metric as a custom
// benchmark metric:
//
//	improve%   average SDEM-ON energy-saving improvement over MBKPS
//	sdemon%    average SDEM-ON saving versus MBKP
//	mbkps%     average MBKPS saving versus MBKP
//
// Full-scale sweeps (10 seeds, the complete Table 4 grid) are produced by
// cmd/experiments; these benches keep the per-iteration cost tractable
// while exercising the identical code paths.
package sdem

import (
	"context"
	"math/rand"
	"testing"

	"sdem/internal/dsp"
	"sdem/internal/experiments"
	"sdem/internal/partition"
)

// benchCfg is the reduced per-iteration experiment scale.
func benchCfg() experiments.Config {
	return experiments.Config{Seeds: 2, Tasks: 30}
}

func reportSeries(b *testing.B, series []experiments.Series) {
	b.ReportMetric(100*experiments.AvgImprovement(series), "improve%")
	b.ReportMetric(100*avgSaving(series, true), "sdemon%")
	b.ReportMetric(100*avgSaving(series, false), "mbkps%")
}

// avgSaving averages the SDEM-ON (sdemON) or MBKPS saving column across
// all points of all series.
func avgSaving(series []experiments.Series, sdemON bool) float64 {
	var sum float64
	var n int
	for _, s := range series {
		for _, p := range s.Points {
			if sdemON {
				sum += p.SDEMON.Mean
			} else {
				sum += p.MBKPS.Mean
			}
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkFig6a regenerates Fig. 6a: memory static energy saving over
// utilization U for the FFT and matrix-multiply benchmarks.
func BenchmarkFig6a(b *testing.B) {
	var last []experiments.Series
	for i := 0; i < b.N; i++ {
		s, err := benchCfg().Fig6a()
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	reportSeries(b, last)
}

// BenchmarkFig6b regenerates Fig. 6b: system-wide energy saving over U.
func BenchmarkFig6b(b *testing.B) {
	var last []experiments.Series
	for i := 0; i < b.N; i++ {
		s, err := benchCfg().Fig6b()
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	reportSeries(b, last)
}

// BenchmarkFig7a regenerates Fig. 7a: system saving over α_m × x.
func BenchmarkFig7a(b *testing.B) {
	cfg := experiments.Config{Seeds: 1, Tasks: 25}
	var last []experiments.Series
	for i := 0; i < b.N; i++ {
		s, err := cfg.Fig7a()
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	reportSeries(b, last)
}

// BenchmarkFig7b regenerates Fig. 7b: system saving over ξ_m × x.
func BenchmarkFig7b(b *testing.B) {
	cfg := experiments.Config{Seeds: 1, Tasks: 25}
	var last []experiments.Series
	for i := 0; i < b.N; i++ {
		s, err := cfg.Fig7b()
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	reportSeries(b, last)
}

// BenchmarkTable3 regenerates the Table 3 overhead-case demonstration.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := (experiments.Config{}).Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSequential regenerates the reduced-scale Fig. 6b sweep on
// the historical one-worker path — the baseline BenchmarkSweepParallel's
// speedup is measured against. Both run the identical grid and produce
// identical output; only the pool width differs.
func BenchmarkSweepSequential(b *testing.B) {
	cfg := experiments.Config{Seeds: 2, Tasks: 25, Workers: 1}
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Fig6b(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel runs the same reduced grid on a 4-worker pool.
// On a multi-core machine the sweep is embarrassingly parallel per grid
// point, so ns/op should approach a quarter of BenchmarkSweepSequential;
// the ratio of the two is the repo's recorded sweep-engine speedup.
func BenchmarkSweepParallel(b *testing.B) {
	cfg := experiments.Config{Seeds: 2, Tasks: 25, Workers: 4}
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Fig6b(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRaceToIdle runs the A1 ablation (race-to-idle vs
// critical-speed vs SDEM-ON) and reports SDEM-ON's margin over the better
// pole.
func BenchmarkAblationRaceToIdle(b *testing.B) {
	cfg := experiments.Config{Seeds: 1, Tasks: 25}
	var pts []experiments.AblationPoint
	for i := 0; i < b.N; i++ {
		p, err := cfg.Ablation()
		if err != nil {
			b.Fatal(err)
		}
		pts = p
	}
	var margin float64
	for _, p := range pts {
		best := p.RaceToIdle.Mean
		if p.CriticalSpeed.Mean > best {
			best = p.CriticalSpeed.Mean
		}
		margin += p.SDEMON.Mean - best
	}
	b.ReportMetric(100*margin/float64(len(pts)), "margin%")
}

// BenchmarkAblationProcrastination runs the A2 ablation and reports the
// average gain of postponement.
func BenchmarkAblationProcrastination(b *testing.B) {
	cfg := experiments.Config{Seeds: 1, Tasks: 25}
	var pts []experiments.Point
	for i := 0; i < b.N; i++ {
		p, err := cfg.AblationProcrastination()
		if err != nil {
			b.Fatal(err)
		}
		pts = p
	}
	var gain float64
	for _, p := range pts {
		gain += p.Improvement.Mean
	}
	b.ReportMetric(100*gain/float64(len(pts)), "gain%")
}

// --- Micro-benchmarks of the solvers and substrates. ---

// BenchmarkSolveCommonRelease times the §4.2 optimal scheme on 100 tasks.
func BenchmarkSolveCommonRelease(b *testing.B) {
	sys := DefaultSystem()
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0
	benchCommonRelease(b, sys)
}

// BenchmarkSolveCommonReleaseOverhead is the same 100 tasks on the
// default platform with its break-even times left on, so Solve takes
// the §7 overhead scan. It also reports the scan's work per solve from
// one recorded run outside the timed loop: objective evaluations
// (evals/op) and convex pieces priced (pieces/op), counts that do not
// depend on the host.
func BenchmarkSolveCommonReleaseOverhead(b *testing.B) {
	sys := DefaultSystem()
	tel := NewTelemetry()
	if _, err := SolveCtx(context.Background(), commonReleaseBenchTasks(b), sys, tel); err != nil {
		b.Fatal(err)
	}
	benchCommonRelease(b, sys)
	b.ReportMetric(float64(tel.CounterValue("sdem.solver.cr.objective_evals", "")), "evals/op")
	b.ReportMetric(float64(tel.CounterValue("sdem.solver.cr.pieces", "")), "pieces/op")
}

// commonReleaseBenchTasks is the 100-task common-release set of the
// SolveCommonRelease benchmarks.
func commonReleaseBenchTasks(b *testing.B) TaskSet {
	tasks, err := SyntheticWorkload(SyntheticConfig{N: 100, MaxInterArrival: 1e-12}, 3)
	if err != nil {
		b.Fatal(err)
	}
	for i := range tasks {
		tasks[i].Release = 0
		tasks[i].Deadline = Milliseconds(10) + tasks[i].Deadline/10
	}
	return tasks
}

func benchCommonRelease(b *testing.B, sys System) {
	tasks := commonReleaseBenchTasks(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(tasks, sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveAgreeableDP times the §5.2 dynamic program on 12 tasks:
// at most n(n+1)/2 block solves, each a handful of closed-form
// subgradient evaluations over the block's boundary tasks. Like the §7
// scan's benchmark it reports the DP's work per solve from one recorded
// run outside the timed loop: DP cells scanned (cells/op), blocks solved
// (blocks/op) and slope evaluations (slope_evals/op).
func BenchmarkSolveAgreeableDP(b *testing.B) { benchAgreeableDP(b, 12) }

// BenchmarkSolveAgreeableDP50 is the same chain of overlapping tasks at
// n = 50.
func BenchmarkSolveAgreeableDP50(b *testing.B) { benchAgreeableDP(b, 50) }

// BenchmarkSolveAgreeableOverhead is the §7 sibling: 16 sets of 8
// agreeable tasks, the shape sdemd's offline-solve benchmark sends, on
// the default platform with its break-even times on. One op solves one
// set; the work metrics are per set.
func BenchmarkSolveAgreeableOverhead(b *testing.B) {
	sets := make([]TaskSet, 16)
	for i := range sets {
		sets[i] = agreeableBenchSet(8, int64(i))
	}
	benchAgreeableSets(b, sets, DefaultSystem())
}

// agreeableBenchSet draws n overlapping tasks whose deadlines never
// decrease with their releases: releases 5–25 ms apart, windows of
// 40–80 ms, 2–5·10⁶ cycles.
func agreeableBenchSet(n int, seed int64) TaskSet {
	r := rand.New(rand.NewSource(seed))
	tasks := make(TaskSet, n)
	var rel, dl float64
	for i := range tasks {
		rel += Milliseconds(5 + 20*r.Float64())
		dl = max(dl, rel+Milliseconds(40+40*r.Float64()))
		tasks[i] = Task{ID: i, Release: rel, Deadline: dl, Workload: 2e6 + 3e6*r.Float64()}
	}
	return tasks
}

func benchAgreeableDP(b *testing.B, n int) {
	sys := DefaultSystem()
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0
	tasks := make(TaskSet, n)
	var rel float64
	for i := range tasks {
		rel += Milliseconds(15)
		tasks[i] = Task{ID: i, Release: rel, Deadline: rel + Milliseconds(60), Workload: 3e6}
	}
	benchAgreeableSets(b, []TaskSet{tasks}, sys)
}

// benchAgreeableSets solves the sets in turn, one per op, and reports
// the DP's mean work per set from one recorded pass over them.
func benchAgreeableSets(b *testing.B, sets []TaskSet, sys System) {
	tel := NewTelemetry()
	for _, tasks := range sets {
		if _, err := SolveCtx(context.Background(), tasks, sys, tel); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(sets[i%len(sets)], sys); err != nil {
			b.Fatal(err)
		}
	}
	perSet := func(name string) float64 {
		return float64(tel.CounterValue(name, "")) / float64(len(sets))
	}
	b.ReportMetric(perSet("sdem.solver.agr.dp_cells"), "cells/op")
	b.ReportMetric(perSet("sdem.solver.agr.block_solves"), "blocks/op")
	b.ReportMetric(perSet("sdem.solver.agr.slope_evals"), "slope_evals/op")
}

// BenchmarkScheduleOnline times SDEM-ON over 200 sporadic tasks.
func BenchmarkScheduleOnline(b *testing.B) {
	sys := DefaultSystem()
	tasks, err := SyntheticWorkload(SyntheticConfig{N: 200}, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleOnline(tasks, sys, OnlineOptions{Cores: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMBKPBaseline times the MBKP baseline over the same workload.
func BenchmarkMBKPBaseline(b *testing.B) {
	sys := DefaultSystem()
	tasks, err := SyntheticWorkload(SyntheticConfig{N: 200}, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MBKP(tasks, sys, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAudit times the independent energy auditor.
func BenchmarkAudit(b *testing.B) {
	sys := DefaultSystem()
	tasks, err := SyntheticWorkload(SyntheticConfig{N: 200}, 4)
	if err != nil {
		b.Fatal(err)
	}
	res, err := ScheduleOnline(tasks, sys, OnlineOptions{Cores: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Audit(res.Schedule, sys)
	}
}

// BenchmarkFFT1024 times the DSP substrate's 1024-point FFT (the
// benchmark kernel of §8.1.1).
func BenchmarkFFT1024(b *testing.B) {
	cm := dsp.DefaultCostModel()
	sig := make([]complex128, 1024)
	for i := range sig {
		sig[i] = complex(float64(i%7), float64(i%3))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsp.FFT(sig, cm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionExact times the exact bounded-core partitioner on a
// 12-task PARTITION instance (Theorem 1's oracle).
func BenchmarkPartitionExact(b *testing.B) {
	ws := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := partition.Exact(ws, 2, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSwitchOverhead runs the A3 ablation (DVS switch cost
// sweep).
func BenchmarkAblationSwitchOverhead(b *testing.B) {
	cfg := experiments.Config{Seeds: 1, Tasks: 25}
	for i := 0; i < b.N; i++ {
		if _, err := cfg.AblationSwitchOverhead(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDiscrete runs the A4 ablation (continuous vs discrete
// DVS levels) and reports the A57 ladder's penalty.
func BenchmarkAblationDiscrete(b *testing.B) {
	cfg := experiments.Config{Seeds: 1, Tasks: 25}
	var pts []experiments.DiscretePoint
	for i := 0; i < b.N; i++ {
		p, err := cfg.AblationDiscrete()
		if err != nil {
			b.Fatal(err)
		}
		pts = p
	}
	b.ReportMetric(100*pts[0].Penalty.Mean, "a57penalty%")
}

// BenchmarkSolveHeterogeneous times the heterogeneous-core §4.2 solver.
func BenchmarkSolveHeterogeneous(b *testing.B) {
	tasks := make(TaskSet, 50)
	cores := make([]Core, 50)
	for i := range tasks {
		tasks[i] = Task{ID: i, Release: 0, Deadline: Milliseconds(100), Workload: 2e6 + float64(i)*5e4}
		c := CortexA57()
		c.Static *= 1 + float64(i%5)*0.2
		cores[i] = c
	}
	mem := Memory{Static: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveHeterogeneous(tasks, cores, mem); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuantize times the Ishihara–Yasuura ladder transform on a
// 200-task online schedule.
func BenchmarkQuantize(b *testing.B) {
	sys := DefaultSystem()
	tasks, err := SyntheticWorkload(SyntheticConfig{N: 200}, 4)
	if err != nil {
		b.Fatal(err)
	}
	res, err := ScheduleOnline(tasks, sys, OnlineOptions{Cores: 8})
	if err != nil {
		b.Fatal(err)
	}
	ladder := CortexA57Ladder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Quantize(res.Schedule, ladder); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLowerBound times the certified bound on 500 tasks.
func BenchmarkLowerBound(b *testing.B) {
	sys := DefaultSystem()
	tasks, err := SyntheticWorkload(SyntheticConfig{N: 500}, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LowerBound(tasks, sys)
	}
}
