package online

import (
	"testing"

	"sdem/internal/power"
	"sdem/internal/telemetry"
	"sdem/internal/workload"
)

// BenchmarkScheduleStreamMillion pushes one million sporadic arrivals
// through the streaming engine in a single pass. The point is the memory
// shape, not just the wall clock: allocations must track the peak active
// set (reported as max_active), not the arrival count — B/op and
// allocs/op growing with the million would mean the engine materializes
// the stream. Run it with -benchtime 1x; one iteration is the statement.
func BenchmarkScheduleStreamMillion(b *testing.B) {
	sys := power.DefaultSystem()
	var maxActive int
	for i := 0; i < b.N; i++ {
		src, err := workload.SporadicStream(workload.SyntheticConfig{MaxInterArrival: power.Milliseconds(50)}, 7, 0)
		if err != nil {
			b.Fatal(err)
		}
		sum, err := ScheduleStream(src, sys, StreamOptions{Cores: 8, MaxJobs: 1_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if sum.Admitted != 1_000_000 {
			b.Fatalf("admitted %d arrivals, want the full million", sum.Admitted)
		}
		if n := sum.UnexplainedMisses(); n > 0 {
			b.Fatalf("%d unexplained misses on a fault-free stream", n)
		}
		maxActive = sum.MaxActive
	}
	b.ReportMetric(float64(maxActive), "max_active")
	b.ReportMetric(1_000_000*float64(b.N)/b.Elapsed().Seconds(), "arrivals/s")
}

// BenchmarkScheduleStream10k is the gate-friendly sibling: the same
// engine over ten thousand arrivals, cheap enough for the CI alloc gate
// to run at a fixed iteration count. It also reports the §7 re-plans'
// work per pass from one recorded run outside the timed loop: objective
// evaluations (evals/op) and convex pieces priced (pieces/op), counts
// that do not depend on the host.
func BenchmarkScheduleStream10k(b *testing.B) {
	sys := power.DefaultSystem()
	tel := telemetry.New()
	stream10k(b, sys, tel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream10k(b, sys, nil)
	}
	b.ReportMetric(float64(tel.CounterValue("sdem.solver.cr.objective_evals", "")), "evals/op")
	b.ReportMetric(float64(tel.CounterValue("sdem.solver.cr.pieces", "")), "pieces/op")
}

// stream10k runs the Stream10k pass once, recording into tel when it is
// non-nil.
func stream10k(b *testing.B, sys power.System, tel *telemetry.Recorder) {
	src, err := workload.SporadicStream(workload.SyntheticConfig{MaxInterArrival: power.Milliseconds(50)}, 7, 0)
	if err != nil {
		b.Fatal(err)
	}
	sum, err := ScheduleStream(src, sys, StreamOptions{Cores: 8, MaxJobs: 10_000, Telemetry: tel})
	if err != nil {
		b.Fatal(err)
	}
	if n := sum.UnexplainedMisses(); n > 0 {
		b.Fatalf("%d unexplained misses on a fault-free stream", n)
	}
}
