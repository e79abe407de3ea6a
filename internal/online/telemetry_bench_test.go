package online

import (
	"testing"

	"sdem/internal/power"
	"sdem/internal/task"
	"sdem/internal/telemetry"
	"sdem/internal/workload"
)

// BenchmarkScheduleOnlineTelemetry is the solve layer of a cold
// /v1/simulate request: SDEM-ON over an n = 60 synthetic set on the
// default platform, recording into a fresh child of a live root
// recorder per op, as sdemd gives each request. Each op schedules its own
// set (seed = op index + 1, the sets BenchmarkServeSimulateCold sends).
func BenchmarkScheduleOnlineTelemetry(b *testing.B) {
	sys := power.DefaultSystem()
	sets := make([]task.Set, b.N)
	for i := range sets {
		ts, err := workload.Synthetic(workload.SyntheticConfig{N: 60}, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = ts
	}
	root := telemetry.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := Options{Cores: sys.Cores, Telemetry: root.Child(i + 1)}
		if _, err := Schedule(sets[i], sys, opts); err != nil {
			b.Fatal(err)
		}
	}
}
