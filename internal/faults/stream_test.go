package faults

import (
	"testing"

	"sdem/internal/schedule"
	"sdem/internal/task"
)

func streamTask(id int) task.Task {
	return task.Task{ID: id, Release: float64(id) * 0.01, Deadline: float64(id)*0.01 + 0.05, Workload: 3e6}
}

// TestStreamerReplayable pins the property the miss classifier leans on:
// re-sampling the same task returns the same fault, bit for bit, in any
// order, from any Streamer with the same (cfg, seed).
func TestStreamerReplayable(t *testing.T) {
	cfg := Config{Intensity: 0.7}
	a := NewStreamer(cfg, 42)
	b := NewStreamer(cfg, 42)
	first := make(map[int]JobFault)
	for id := 0; id < 500; id++ {
		first[id] = a.Sample(streamTask(id))
	}
	// Replay backwards on a fresh Streamer and interleaved on the original.
	for id := 499; id >= 0; id-- {
		if got := b.Sample(streamTask(id)); got != first[id] {
			t.Fatalf("task %d: fresh streamer drew %+v, want %+v", id, got, first[id])
		}
		if got := a.Sample(streamTask(id)); got != first[id] {
			t.Fatalf("task %d: re-sample drew %+v, want %+v", id, got, first[id])
		}
	}
}

// TestStreamerSeedAndIntensity checks that the knobs act: zero intensity
// never perturbs, different seeds draw different storms, and higher
// intensity perturbs more jobs.
func TestStreamerSeedAndIntensity(t *testing.T) {
	quiet := NewStreamer(Config{Intensity: 0}, 1)
	for id := 0; id < 200; id++ {
		if f := quiet.Sample(streamTask(id)); !f.None() {
			t.Fatalf("zero intensity perturbed task %d: %+v", id, f)
		}
	}

	count := func(s *Streamer, n int) int {
		hit := 0
		for id := 0; id < n; id++ {
			if !s.Sample(streamTask(id)).None() {
				hit++
			}
		}
		return hit
	}
	low := count(NewStreamer(Config{Intensity: 0.2}, 1), 2000)
	high := count(NewStreamer(Config{Intensity: 0.9}, 1), 2000)
	if low == 0 || high == 0 {
		t.Fatalf("streamer never fires: low %d, high %d", low, high)
	}
	if high <= low {
		t.Errorf("intensity 0.9 perturbed %d jobs, 0.2 perturbed %d — knob inert", high, low)
	}

	s1 := NewStreamer(Config{Intensity: 0.8}, 1)
	s2 := NewStreamer(Config{Intensity: 0.8}, 2)
	same := 0
	for id := 0; id < 500; id++ {
		if s1.Sample(streamTask(id)) == s2.Sample(streamTask(id)) {
			same++
		}
	}
	if same == 500 {
		t.Error("seeds 1 and 2 drew identical storms")
	}
}

// TestStreamerBounds checks the fault magnitudes honor the config
// ceilings and stay admissible: factors in (1, 1+(OverrunMax−1)·I],
// delays non-negative and within the window.
func TestStreamerBounds(t *testing.T) {
	cfg := Config{Intensity: 0.6, OverrunMax: 2.5}
	s := NewStreamer(cfg, 9)
	maxFactor := 1 + (cfg.OverrunMax-1)*cfg.Intensity
	for id := 0; id < 2000; id++ {
		tk := streamTask(id)
		f := s.Sample(tk)
		if f.WorkFactor < 1 || f.WorkFactor > maxFactor {
			t.Fatalf("task %d: work factor %g outside [1, %g]", id, f.WorkFactor, maxFactor)
		}
		if f.ReleaseDelay < 0 || f.ReleaseDelay > tk.Window() {
			t.Fatalf("task %d: release delay %g outside [0, %g]", id, f.ReleaseDelay, tk.Window())
		}
	}
}

// TestStreamerKindsFilter checks Kinds gating: a streamer restricted to
// overruns must never delay a release, and vice versa.
func TestStreamerKindsFilter(t *testing.T) {
	over := NewStreamer(Config{Intensity: 1, Kinds: []Kind{Overrun}}, 5)
	late := NewStreamer(Config{Intensity: 1, Kinds: []Kind{LateRelease}}, 5)
	overFired, lateFired := false, false
	for id := 0; id < 1000; id++ {
		tk := streamTask(id)
		if f := over.Sample(tk); f.ReleaseDelay != 0 {
			t.Fatalf("overrun-only streamer delayed task %d", id)
		} else if f.WorkFactor > 1 {
			overFired = true
		}
		if f := late.Sample(tk); f.WorkFactor != 1 {
			t.Fatalf("late-only streamer scaled task %d workload", id)
		} else if f.ReleaseDelay > 0 {
			lateFired = true
		}
	}
	if !overFired || !lateFired {
		t.Errorf("kind-filtered streamers never fired (overrun %v, late %v)", overFired, lateFired)
	}
}

// TestJobFaultApply pins the one task-level transform: overruns scale the
// declared workload, late releases move the release but never the
// deadline, and a delay past the window leaves a schedule.Tol sliver so
// the job stays admissible.
func TestJobFaultApply(t *testing.T) {
	tk := task.Task{ID: 3, Release: 1, Deadline: 1.05, Workload: 3e6}
	if got := (JobFault{WorkFactor: 1}).Apply(tk); got != tk {
		t.Errorf("the identity fault changed the task: %+v", got)
	}
	got := (JobFault{WorkFactor: 1.5, ReleaseDelay: 0.01}).Apply(tk)
	if got.Workload != 4.5e6 || got.Release != 1.01 || got.Deadline != tk.Deadline {
		t.Errorf("overrun + late release = %+v", got)
	}
	got = (JobFault{WorkFactor: 1, ReleaseDelay: 1}).Apply(tk)
	if got.Release != tk.Deadline-schedule.Tol {
		t.Errorf("delay past the window left release %g, want deadline − Tol", got.Release)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("clamped task must stay valid: %v", err)
	}
}

// TestPlanJobFault folds a plan's task-level faults per task and ignores
// platform faults and other tasks.
func TestPlanJobFault(t *testing.T) {
	p := Plan{Faults: []Fault{
		{Kind: Overrun, TaskID: 1, Core: -1, Factor: 1.25},
		{Kind: LateRelease, TaskID: 1, Core: -1, Delay: 0.002},
		{Kind: LateRelease, TaskID: 1, Core: -1, Delay: 0.003},
		{Kind: Overrun, TaskID: 2, Core: -1, Factor: 2},
		{Kind: SpeedCap, TaskID: -1, Core: 0, Factor: 0.5, At: 0, Until: 1},
	}}
	if got := p.JobFault(1); got.WorkFactor != 1.25 || got.ReleaseDelay != 0.002+0.003 {
		t.Errorf("task 1 fault = %+v", got)
	}
	if got := p.JobFault(7); !got.None() {
		t.Errorf("untargeted task got %+v", got)
	}
}
