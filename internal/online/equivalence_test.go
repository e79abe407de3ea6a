package online

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"sdem/internal/faults"
	"sdem/internal/parallel"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
	"sdem/internal/workload"
)

// perturb applies the task-level faults of a plan (workload overruns,
// late releases) to a copy of the task set through the one fault
// transform, so both engines consume the same perturbed inputs — the path
// on which the urgent/race branches and deadline misses actually fire.
func perturb(tasks task.Set, plan faults.Plan) task.Set {
	out := tasks.Clone()
	for i, t := range out {
		out[i] = plan.JobFault(t.ID).Apply(t)
	}
	return out
}

// equivalenceWorkloads yields the deterministic workload/system/options
// grid the byte-identity property is checked over: the fig7 sporadic
// synthetic sets, the fig6 DSP benchmark sets, and fault-perturbed
// variants of both, across scheme dispatch and engine options.
func equivalenceWorkloads(t *testing.T) []struct {
	name  string
	tasks task.Set
	sys   power.System
	opts  Options
} {
	t.Helper()
	overhead := power.DefaultSystem() // ξ_m > 0: overhead scheme
	static := power.DefaultSystem()
	static.Core.BreakEven = 0
	static.Memory.BreakEven = 0 // α > 0: with-static scheme
	alphaZero := static
	alphaZero.Core.Static = 0 // α = 0 scheme
	unbounded := static
	unbounded.Core.SpeedMax = 0 // raceSpeed stretch paths

	var out []struct {
		name  string
		tasks task.Set
		sys   power.System
		opts  Options
	}
	add := func(name string, tasks task.Set, sys power.System, opts Options) {
		out = append(out, struct {
			name  string
			tasks task.Set
			sys   power.System
			opts  Options
		}{name, tasks, sys, opts})
	}

	for seed := int64(1); seed <= 6; seed++ {
		// fig7-style sporadic synthetic workload.
		syn, err := workload.Synthetic(workload.SyntheticConfig{N: 40, MaxInterArrival: power.Milliseconds(120)}, seed)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("fig7/seed=%d/overhead", seed), syn, overhead, Options{Cores: 8})
		add(fmt.Sprintf("fig7/seed=%d/static", seed), syn, static, Options{Cores: 4})
		add(fmt.Sprintf("fig7/seed=%d/alpha0", seed), syn, alphaZero, Options{Cores: 8, PlanAlphaZero: true})
		add(fmt.Sprintf("fig7/seed=%d/noproc", seed), syn, overhead, Options{Cores: 8, NoProcrastinate: true})

		// fig6-style DSP benchmark workload.
		bench, err := workload.Benchmark(workload.BenchmarkConfig{N: 30, Kernel: workload.KernelMixed, U: 0.4}, seed)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("fig6/seed=%d/overhead", seed), bench, overhead, Options{Cores: 8})
		add(fmt.Sprintf("fig6/seed=%d/static", seed), bench, static, Options{Cores: 8})

		// Fault-perturbed variants: overruns and late releases push jobs
		// into the urgent/slackless branches and produce misses, under a
		// core shortage to stress the execute queueing path.
		plan := faults.Generate(faults.Config{Intensity: 0.6}, syn, overhead, seed)
		hot := perturb(syn, plan)
		add(fmt.Sprintf("fig7-faulty/seed=%d/overhead", seed), hot, overhead, Options{Cores: 2})
		add(fmt.Sprintf("fig7-faulty/seed=%d/static", seed), hot, static, Options{Cores: 1})
		add(fmt.Sprintf("fig7-faulty/seed=%d/unbounded", seed), hot, unbounded, Options{Cores: 2})
	}
	return out
}

// TestScheduleMatchesRescan is the equivalence property: the incremental
// engine's sim.Result is identical — schedule bits, misses, energy,
// metrics — to the legacy full-rescan oracle on every deterministic
// workload, fault-free and fault-perturbed.
func TestScheduleMatchesRescan(t *testing.T) {
	for _, c := range equivalenceWorkloads(t) {
		inc, err := Schedule(c.tasks, c.sys, c.opts)
		if err != nil {
			t.Fatalf("%s: incremental: %v", c.name, err)
		}
		ref, err := ScheduleRescan(c.tasks, c.sys, c.opts)
		if err != nil {
			t.Fatalf("%s: rescan: %v", c.name, err)
		}
		if !reflect.DeepEqual(inc, ref) {
			t.Errorf("%s: incremental result diverges from rescan oracle\nincremental: energy=%x misses=%v segs=%d\nrescan:      energy=%x misses=%v segs=%d",
				c.name, math.Float64bits(inc.Energy), inc.Misses, countSegs(inc),
				math.Float64bits(ref.Energy), ref.Misses, countSegs(ref))
		}
	}
}

func countSegs(r *sim.Result) int {
	n := 0
	for _, c := range r.Schedule.Cores {
		n += len(c)
	}
	return n
}

// TestScheduleWorkerCountInvariant runs the equivalence grid through
// parallel.Map at several worker counts and requires identical
// fingerprints, so the engines stay deterministic under the sweep pool.
func TestScheduleWorkerCountInvariant(t *testing.T) {
	cases := equivalenceWorkloads(t)
	run := func(workers int) []uint64 {
		out, err := parallel.Map(context.Background(), workers, len(cases), func(_ context.Context, i int) (uint64, error) {
			c := cases[i]
			res, err := Schedule(c.tasks, c.sys, c.opts)
			if err != nil {
				return 0, err
			}
			return math.Float64bits(res.Energy) ^ uint64(len(res.Misses))<<1 ^ uint64(countSegs(res)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := run(1)
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); !reflect.DeepEqual(got, seq) {
			t.Errorf("workers=%d: fingerprints diverge from sequential", workers)
		}
	}
}

// TestPlanReuseAndSkipFire pins the incremental engine's two elision
// paths open on a workload built to hit them: a strictly periodic task
// (identical window/workload bits every period, one job active at a
// time) must reuse the previous solve, and a pair of arrivals closer
// together than the first job's procrastinated wake must skip the solve
// outright. Equivalence on these workloads is covered by the property
// test; this test proves the fast paths actually run.
func TestPlanReuseAndSkipFire(t *testing.T) {
	sys := power.DefaultSystem()

	periodic := make(task.Set, 0, 12)
	for i := 0; i < 12; i++ {
		rel := float64(i) * 0.2
		periodic = append(periodic, task.Task{ID: i, Release: rel, Deadline: rel + 0.1, Workload: 3e6})
	}
	tel := telemetry.New()
	if _, err := Schedule(periodic, sys, Options{Cores: 2, Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
	if got := counter(tel, "sdem.solver.online.plan_reuse"); got < 5 {
		t.Errorf("periodic workload reused %d plans, want ≥ 5", got)
	}
	if inc, ref := mustRun(t, Schedule, periodic, sys), mustRun(t, ScheduleRescan, periodic, sys); !reflect.DeepEqual(inc, ref) {
		t.Error("periodic workload: memo path diverges from oracle")
	}

	// Two bursts 1 ms apart, each job with a 100 ms window: the first
	// plan procrastinates far past the second arrival.
	burst := task.Set{
		{ID: 0, Release: 0, Deadline: 0.1, Workload: 2e6},
		{ID: 1, Release: 0.001, Deadline: 0.101, Workload: 2e6},
	}
	tel = telemetry.New()
	if _, err := Schedule(burst, sys, Options{Cores: 2, Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
	if got := counter(tel, "sdem.solver.online.skipped_solves"); got < 1 {
		t.Errorf("burst workload skipped %d solves, want ≥ 1", got)
	}
	if inc, ref := mustRun(t, Schedule, burst, sys), mustRun(t, ScheduleRescan, burst, sys); !reflect.DeepEqual(inc, ref) {
		t.Error("burst workload: skip path diverges from oracle")
	}
}

func mustRun(t *testing.T, f func(task.Set, power.System, Options) (*sim.Result, error), tasks task.Set, sys power.System) *sim.Result {
	t.Helper()
	res, err := f(tasks, sys, Options{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func counter(tel *telemetry.Recorder, name string) int64 {
	var total int64
	for _, c := range tel.Snapshot().Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// admitOne records a one-core run with the single task admitted.
func admitOne(t *testing.T, tk task.Task, sys power.System) (*sim.Stream, *sim.Job) {
	t.Helper()
	st, err := sim.NewRecorder(task.Set{tk}, sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.Admit(tk)
	if err != nil {
		t.Fatal(err)
	}
	return st, j
}

// TestExecuteSlacklessRacesAtMax is the regression test for the late-job
// speed fix: when queueing delay pushes a job's start to or past its
// deadline, execute must race it at s_up instead of keeping the stale
// planned speed (which would stretch the overrun far past the deadline).
func TestExecuteSlacklessRacesAtMax(t *testing.T) {
	sys := power.DefaultSystem()
	st, j := admitOne(t, task.Task{ID: 1, Release: 0, Deadline: 0.05, Workload: 4e6}, sys)
	// The single core is busy until after the deadline, so the planned
	// (p, speed) pair is stale by the time the job starts.
	busy := []float64{0.06}
	plans := []Plan{{Job: j, P: 0.04, Speed: 1e8}}
	if err := execute(st, busy, plans, 0, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	segs := segmentsOf(st, t)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	if got, want := segs[0].Speed, sys.Core.SpeedMax; got != want {
		t.Errorf("slackless start ran at %g, want race speed s_up = %g", got, want)
	}
}

// TestExecuteSlacklessUnboundedSpeed covers the same regression on a
// platform without a speed cap: the race speed must be a finite stretch
// over the job's own window, not the stale plan or a sentinel.
func TestExecuteSlacklessUnboundedSpeed(t *testing.T) {
	sys := power.DefaultSystem()
	sys.Core.SpeedMax = 0
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0
	st, j := admitOne(t, task.Task{ID: 1, Release: 0, Deadline: 0.05, Workload: 4e6}, sys)
	busy := []float64{0.06}
	plans := []Plan{{Job: j, P: 0.04, Speed: 1e8}}
	if err := execute(st, busy, plans, 0, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	segs := segmentsOf(st, t)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	want := 4e6 / 0.05 // workload over the full release→deadline window
	if got := segs[0].Speed; got != want {
		t.Errorf("slackless start on uncapped core ran at %g, want window stretch %g", got, want)
	}
}

// TestPlanAtUrgentNoSpeedCap is the regression test for the 1e12
// sentinel leak: with SpeedMax == 0, an urgent job's plan used to carry
// the infinite-cap sentinel as its speed (and a near-zero P). The plan
// must instead race at a finite stretch over the job's window — in the
// reference planner and in Runtime.Plan alike.
func TestPlanAtUrgentNoSpeedCap(t *testing.T) {
	sys := power.DefaultSystem()
	sys.Core.SpeedMax = 0
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0
	st, j := admitOne(t, task.Task{ID: 1, Release: 0, Deadline: 0.01, Workload: 1e6}, sys)
	now := 0.02 // past the deadline: the job is urgent with window ≤ 0
	ref, wake, err := PlanAt(st, []*sim.Job{j}, now, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wake != now {
		t.Errorf("urgent wake = %g, want now = %g", wake, now)
	}
	var rt Runtime
	inc, err := rt.Plan([]*sim.Job{j}, now, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		plans []Plan
	}{{"PlanAt", ref}, {"Runtime.Plan", inc}} {
		if len(c.plans) != 1 || !c.plans[0].Urgent {
			t.Fatalf("%s: want 1 urgent plan, got %+v", c.name, c.plans)
		}
		wantSpeed := 1e6 / 0.01 // workload over the release→deadline window
		if got := c.plans[0].Speed; got != wantSpeed {
			t.Errorf("%s: urgent plan speed = %g, want %g (sentinel must not leak)", c.name, got, wantSpeed)
		}
		if got, want := c.plans[0].P, 0.01; got != want {
			t.Errorf("%s: urgent plan P = %g, want %g", c.name, got, want)
		}
	}
}

// segmentsOf finalizes the recorded run and returns all segments across
// cores.
func segmentsOf(st *sim.Stream, t *testing.T) []schedule.Segment {
	t.Helper()
	res, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	var segs []schedule.Segment
	for _, c := range res.Schedule.Cores {
		segs = append(segs, c...)
	}
	return segs
}

// TestTolCloseReleasesMatchRescan pins the admission rule on releases
// closer together than schedule.Tol: every distinct release is still a
// planning instant, and an arrival within Tol after an instant joins it
// early — exactly as the rescan oracle admits — so the finite-stream
// engine re-plans at the same instants with the same active sets.
func TestTolCloseReleasesMatchRescan(t *testing.T) {
	ns := 1e-9
	tasks := task.Set{
		{ID: 0, Release: 0, Deadline: 0.05, Workload: 3e6},
		{ID: 1, Release: 0.4 * ns, Deadline: 0.06, Workload: 2e6},
		{ID: 2, Release: 0.9 * ns, Deadline: 0.055, Workload: 4e6},
		{ID: 3, Release: 1.5 * ns, Deadline: 0.045, Workload: 1e6},
		{ID: 4, Release: 0.02, Deadline: 0.07, Workload: 3e6},
		{ID: 5, Release: 0.02 + 0.5*ns, Deadline: 0.08, Workload: 2e6},
		{ID: 6, Release: 0.02 + 0.5*ns, Deadline: 0.075, Workload: 2e6},
	}
	static := power.DefaultSystem()
	static.Core.BreakEven = 0
	static.Memory.BreakEven = 0
	for _, sys := range []power.System{power.DefaultSystem(), static} {
		for _, opts := range []Options{{Cores: 1}, {Cores: 2}, {Cores: 2, NoProcrastinate: true}} {
			incTel, refTel := telemetry.New(), telemetry.New()
			opts.Telemetry = incTel
			inc, err := Schedule(tasks, sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Telemetry = refTel
			ref, err := ScheduleRescan(tasks, sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(inc.Schedule, ref.Schedule) || !reflect.DeepEqual(inc.Misses, ref.Misses) ||
				inc.Energy != ref.Energy || inc.Metrics != ref.Metrics {
				t.Errorf("cores=%d noproc=%v: engine diverges from the rescan oracle", opts.Cores, opts.NoProcrastinate)
			}
			if a, b := counter(incTel, "sdem.solver.online.plans"), counter(refTel, "sdem.solver.online.plans"); a != b || a != 6 {
				t.Errorf("cores=%d: engine planned %d times, oracle %d, want one plan per distinct release (6)", opts.Cores, a, b)
			}
		}
	}
}
