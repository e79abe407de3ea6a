package faults

import (
	"sdem/internal/schedule"
	"sdem/internal/stats"
	"sdem/internal/task"
)

// JobFault is the per-job perturbation a Streamer draws: a workload
// overrun factor (1 = none) and a release delay (0 = none).
type JobFault struct {
	// WorkFactor scales the job's real workload (≥ 1).
	WorkFactor float64
	// ReleaseDelay postpones the job's arrival (≥ 0); the deadline is
	// unchanged, shrinking the feasible window.
	ReleaseDelay float64
}

// None reports whether the job is unperturbed.
//
//lint:allow floatcmp: Sample writes these exact literals when no fault fires; the zero draw round-trips bit-exactly
func (f JobFault) None() bool { return f.WorkFactor == 1 && f.ReleaseDelay == 0 }

// Apply returns the task as the fault perturbs it: the workload scaled by
// WorkFactor, the release postponed by ReleaseDelay. A delay that reaches
// the deadline leaves a sliver window of schedule.Tol instead, so the job
// stays admissible (an empty window with work is invalid) and still runs
// the urgent path into a fault-induced miss. This is the one task-level
// fault transform: streams, plan replays and tests all perturb through it.
func (f JobFault) Apply(t task.Task) task.Task {
	if f.None() {
		return t
	}
	t.Workload *= f.WorkFactor
	t.Release += f.ReleaseDelay
	if t.Release >= t.Deadline {
		t.Release = t.Deadline - schedule.Tol
	}
	return t
}

// Streamer samples per-job faults for unbounded task streams. Generate
// draws a finite plan over a known task set; a soak run over days of
// virtual time has no such set, so the Streamer instead derives each
// job's perturbation from a hash of (seed, task ID) — O(1) memory,
// deterministic, and replayable per job: re-sampling the same task
// always returns the same fault, which is how the soak harness
// classifies a miss as explained (the job was perturbed) or unexplained
// (an engine bug) without remembering past draws.
//
// Only the task-level kinds apply to a stream: Overrun and LateRelease,
// with the same Config probabilities and ceilings as Generate.
type Streamer struct {
	cfg  Config
	seed uint64
}

// NewStreamer prepares a sampler, deterministic in (cfg, seed).
func NewStreamer(cfg Config, seed int64) *Streamer {
	return &Streamer{cfg: cfg.withDefaults(), seed: uint64(seed)}
}

// Sample draws the perturbation of one job. The draw depends only on the
// Streamer's seed, the task's ID and its window, so it can be replayed
// at classification time.
func (s *Streamer) Sample(t task.Task) JobFault {
	out := JobFault{WorkFactor: 1}
	in := s.cfg.Intensity
	if in <= 0 {
		return out
	}
	if in > 1 {
		in = 1
	}
	h := stats.SplitMix64(s.seed ^ (uint64(t.ID)+1)*0x9e3779b97f4a7c15)
	if s.cfg.wants(Overrun) {
		p, mag := unitPair(&h)
		if p < s.cfg.OverrunProb*in {
			out.WorkFactor = 1 + (s.cfg.OverrunMax-1)*in*mag
		}
	}
	if s.cfg.wants(LateRelease) {
		p, mag := unitPair(&h)
		if p < 0.2*in {
			// Cap the delay so the perturbed release stays inside the
			// window — the stream stays admissible, just tighter.
			out.ReleaseDelay = s.cfg.LateReleaseMax * in * mag * t.Window()
		}
	}
	return out
}

// unitPair advances the hash state and returns two independent uniform
// draws in [0, 1).
func unitPair(h *uint64) (a, b float64) {
	x := stats.SplitMix64(*h)
	y := stats.SplitMix64(x)
	*h = y
	return unitFloat(x), unitFloat(y)
}

// unitFloat maps a hash value to [0, 1) with 53 bits of precision.
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }
