package online

import (
	"context"
	"fmt"
	"math"

	"sdem/internal/faults"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
	"sdem/internal/telemetry/series"
	"sdem/internal/workload"
)

// StreamOptions tunes a streaming SDEM-ON run.
type StreamOptions struct {
	// Cores is the physical core count (required, > 0).
	Cores int
	// MaxVirtual stops admitting new arrivals once the stream has
	// advanced that many seconds of virtual time past the first release
	// (0 = no bound; the source must then be finite).
	MaxVirtual float64
	// MaxJobs stops admitting after that many arrivals (0 = no bound).
	MaxJobs int64
	// Faults, when non-nil, perturbs each arriving job (workload
	// overruns, late releases) and classifies the resulting misses.
	Faults *faults.Streamer
	// Telemetry, when non-nil, records the same sdem.solver.online.* and
	// sdem.sim.* series as the batch engine, plus
	// sdem.solver.online.stream_virtual_s (a gauge of progress a live
	// scrape can watch).
	Telemetry *telemetry.Recorder
	// Series, when non-nil, is advanced on virtual time at every
	// planning-batch boundary and fed the per-retirement response sketch
	// (sdem.stream.response_s) plus the per-batch mean energy per
	// completed job (sdem.stream.energy_per_job_j). The caller owns the
	// collector and calls Finish on it after the run.
	Series *series.Collector
	// Ctx, when non-nil, is polled at every arrival boundary.
	Ctx context.Context
}

// arrivalHeap reorders perturbed arrivals by (release, ID): a late-release
// fault can push a job past later upstream arrivals, and the engine must
// still admit in time order. Delays are bounded by each job's window, so
// the heap stays as small as the overlap — O(active), never O(stream).
//
// It is a hand-rolled typed binary heap rather than a container/heap
// implementation: heap.Push and heap.Pop traffic in `any`, which boxes
// every task on push AND on pop — two heap allocations per arrival on the
// engine's hottest path. The typed min-heap keeps the identical
// (release, ID) order with zero allocations past the backing array's
// high-water growth.
type arrivalHeap []task.Task

func (h arrivalHeap) less(i, j int) bool {
	//lint:allow floatcmp: heap ordering must be exact to stay deterministic
	if h[i].Release != h[j].Release {
		return h[i].Release < h[j].Release
	}
	return h[i].ID < h[j].ID
}

// push inserts t and restores the heap invariant (sift-up).
func (h *arrivalHeap) push(t task.Task) {
	*h = append(*h, t)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes and returns the minimum element (sift-down).
func (h *arrivalHeap) pop() task.Task {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = task.Task{}
	*h = s[:n]
	s = s[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.less(r, l) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// ScheduleStream runs the incremental SDEM-ON engine over an unbounded
// arrival source in O(active-set) memory: jobs are admitted from the
// source one arrival at a time, planned with the same per-arrival
// machinery as Schedule, executed into a metered sim.Stream that accounts
// energy incrementally, and retired on completion. This is the soak
// engine — days of virtual time under fault injection with live
// telemetry, no materialized task set or schedule.
func ScheduleStream(src workload.Source, sys power.System, opts StreamOptions) (*sim.StreamSummary, error) {
	var rt Runtime
	return rt.RunStream(src, sys, opts)
}

// RunStream is ScheduleStream on a retained Runtime (see Schedule vs
// Runtime.Schedule).
func (rt *Runtime) RunStream(src workload.Source, sys power.System, opts StreamOptions) (*sim.StreamSummary, error) {
	st, err := sim.NewStream(sys, opts.Cores)
	if err != nil {
		return nil, err
	}
	st.SetTelemetry(opts.Telemetry, engineLabel(false))
	// A miss is explained when the job itself was perturbed (replayed
	// from its deterministic fault draw) or when the executor squeezed it
	// behind a full machine — a queueing consequence of overload bursts
	// or of perturbed jobs hogging cores, possibly chained through clean
	// jobs that absorbed the delay. A sporadic source over enough virtual
	// time will overload any finite machine occasionally, so squeezed
	// misses are expected physics, not bugs. A miss on an undisturbed,
	// never-squeezed job means the planner itself scheduled it wrong: an
	// engine bug, and the soak gate fails on it.
	fs := opts.Faults
	st.SetMissClassifier(func(j *sim.Job) bool {
		if j.Squeezed {
			return true
		}
		return fs != nil && !fs.Sample(j.Task).None()
	})
	if opts.Series != nil {
		st.SetRetireHook(func(_ *sim.Job, resp float64) {
			opts.Series.Observe("sdem.stream.response_s", resp)
		})
	}
	end, err := rt.drive(src, st, opts, Options{Telemetry: opts.Telemetry, Ctx: opts.Ctx})
	if err != nil {
		return nil, err
	}
	return st.Finish(end), nil
}

// drive is the one SDEM-ON arrival loop. Every distinct release is a
// planning instant: the arrivals released by then (up to schedule.Tol)
// are admitted — perturbed by opts.Faults first — the active set is
// re-planned with stepOpts, and the plan executes until the next instant.
// An arrival within Tol after the instant is admitted with it, but its
// own release still gets an instant of its own. opts supplies the
// stream's limits, faults and series; its Cores, Telemetry and Ctx are
// ignored: the executor knows its cores, and stepOpts carries the
// recorder and the context. drive returns the end of the run's horizon,
// the latest admitted deadline or execution end.
func (rt *Runtime) drive(src workload.Source, st *sim.Stream, opts StreamOptions, stepOpts Options) (float64, error) {
	busy := rt.reset(st.Cores())
	// Windowed energy-per-job observations accumulate between batch
	// seals: the sketch sees the mean energy of each batch's newly
	// completed jobs.
	var meteredE float64
	var meteredN int64

	var (
		upstream  task.Task
		hasUp     bool
		drawn     int64
		started   bool
		first     float64
		maxDL     float64
		exhausted bool
		arrival   int64
	)
	pull := func() {
		if exhausted {
			return
		}
		t, ok := src.Next()
		if !ok {
			exhausted = true
			hasUp = false
			return
		}
		upstream, hasUp = t, true
	}
	admissionOver := func(rel float64) bool {
		if opts.MaxJobs > 0 && drawn >= opts.MaxJobs {
			return true
		}
		return started && opts.MaxVirtual > 0 && rel-first > opts.MaxVirtual
	}

	pull()
	for {
		if stepOpts.Ctx != nil {
			if err := stepOpts.Ctx.Err(); err != nil {
				return 0, fmt.Errorf("online: cancelled at arrival %d: %w", arrival, err)
			}
		}
		// Feed the reorder heap until its minimum instant is safe to
		// admit at: once the upstream release passes the heap minimum by
		// more than Tol, no future task — delays are non-negative — can
		// join that instant.
		for hasUp && (len(rt.pending) == 0 || upstream.Release <= rt.pending[0].Release+schedule.Tol) {
			if admissionOver(upstream.Release) {
				hasUp = false
				exhausted = true
				break
			}
			t := upstream
			if opts.Faults != nil {
				t = opts.Faults.Sample(t).Apply(t)
			}
			rt.pending.push(t)
			drawn++
			pull()
		}
		if len(rt.early) == 0 && len(rt.pending) == 0 && st.Active() == 0 {
			break // drained: no arrivals left and nothing running
		}

		// The next planning instant: a release already admitted ahead of
		// its instant, the earliest pending arrival, or a final drain
		// pass over whatever is still active.
		var now float64
		switch {
		case len(rt.early) > 0:
			now = rt.early[0]
			rt.early = rt.early[:copy(rt.early, rt.early[1:])]
		case len(rt.pending) > 0:
			now = rt.pending[0].Release
		default:
			now = st.Now()
		}
		opts.Series.Advance(now)
		for len(rt.pending) > 0 && rt.pending[0].Release <= now+schedule.Tol {
			t := rt.pending.pop()
			j, err := st.Admit(t)
			if err != nil {
				return 0, fmt.Errorf("online: admitting task %d: %w", t.ID, err)
			}
			arrival++
			if !started {
				started = true
				first = t.Release
			}
			if t.Deadline > maxDL {
				maxDL = t.Deadline
			}
			if t.Release > now && (len(rt.early) == 0 || t.Release > rt.early[len(rt.early)-1]) {
				rt.early = append(rt.early, t.Release)
			}
			if !j.Done {
				rt.insertActive(j)
			}
		}
		next := math.Inf(1)
		switch {
		case len(rt.early) > 0:
			next = rt.early[0]
		case len(rt.pending) > 0:
			next = rt.pending[0].Release
		case hasUp:
			next = upstream.Release
		}
		rt.sweepDone()
		if len(rt.active) > 0 {
			if err := rt.step(st, busy, now, next, stepOpts); err != nil {
				return 0, err
			}
			rt.sweepDone()
		}
		st.Seal(next)
		if opts.Series != nil {
			if e, n := st.EnergySoFar(), st.Completed(); n > meteredN {
				opts.Series.Observe("sdem.stream.energy_per_job_j", (e-meteredE)/float64(n-meteredN))
				meteredE, meteredN = e, n
			}
		}
		if math.IsInf(next, 1) && len(rt.active) > 0 {
			// Final drain executed everything plannable; anything still
			// active is unschedulable (zero window at +Inf horizon) and
			// retires as a miss.
			break
		}
		if math.IsInf(next, 1) && len(rt.pending) == 0 && !hasUp && st.Active() == 0 {
			break
		}
	}
	return math.Max(maxDL, st.Now()), nil
}
