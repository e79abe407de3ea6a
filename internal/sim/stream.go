package sim

import (
	"errors"
	"fmt"
	"math"

	"sdem/internal/numeric"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// missSampleCap bounds the per-run sample of miss details kept by a
// metered Stream; counts past the cap are still accumulated.
const missSampleCap = 64

// Stream is the executor every online policy drives: jobs are admitted
// as they arrive, executed segment by segment (runSegment), and retired
// as soon as they complete. It accounts energy through one of two sinks:
//
//   - metered (NewStream): a schedule.Meter charges segments as they are
//     emitted and retired jobs are recycled, so days of virtual time run
//     in memory proportional to the peak active set, not to the total
//     jobs or segments. Finish closes the run.
//   - recorded (NewRecorder): segments are assembled into a
//     schedule.Schedule and every admitted job stays addressable; Result
//     normalizes the schedule and audits it exactly. Batch runs use this
//     sink — their schedules, miss lists and metrics are the output.
//
// The zero value is not usable. A Stream is not safe for concurrent use.
type Stream struct {
	sys     power.System
	cores   int
	jobs    map[int]*Job // metered: active jobs only; recorded: every admitted job
	active  int          // admitted, unfinished jobs
	free    []*Job       // retired job recycling (metered)
	meter   *schedule.Meter
	limiter SpeedLimiter
	now     float64
	started bool
	start   float64

	// The recorded sink: the release-sorted input set (the order Result
	// reports misses and sums metrics in), the job slab admission draws
	// from, and the assembled schedule. All nil on a metered stream.
	tasks task.Set
	slab  []Job
	sched *schedule.Schedule

	tel      *telemetry.Recorder
	telLabel string

	// classify, when non-nil, reports whether a missed job's miss is
	// explained by an injected perturbation (the soak harness installs a
	// fault-sampler closure); unexplained misses indicate engine bugs.
	classify func(*Job) bool

	// onRetire, when non-nil, observes every completed job as it retires
	// (the windowed-series wiring feeds response-time sketches through
	// it). The *Job is recycled immediately after the call returns and
	// must not be retained.
	onRetire func(j *Job, response float64)

	// lastMetered tracks the high-water Running() energy already flushed
	// to the sdem.sim.metered_j series at Seal boundaries.
	lastMetered float64

	admitted, completed     int64
	missed, explainedMisses int64
	maxActive               int
	missSample              []schedule.Miss
	sumResp, maxResp        float64
	sumLax                  float64
}

// StreamSummary is the outcome of a metered run: a Result's aggregates
// without the O(jobs) schedule and per-miss slices.
type StreamSummary struct {
	// Admitted and Completed count jobs with non-zero workload.
	Admitted, Completed int64
	// Misses counts late or unfinished jobs; ExplainedMisses of those
	// were attributed to injected faults by the classifier (equal to
	// Misses when no classifier is installed and misses are expected).
	Misses, ExplainedMisses int64
	// MissSample holds details of the first missSampleCap misses.
	MissSample []schedule.Miss
	// Energy is the metered total; Breakdown itemizes it.
	Energy    float64
	Breakdown schedule.Breakdown
	// Metrics summarizes response times over completed jobs.
	Metrics Metrics
	// Start and End delimit the metered virtual-time horizon.
	Start, End float64
	// MaxActive is the peak concurrently-active job count.
	MaxActive int
}

// UnexplainedMisses returns the misses the classifier could not
// attribute to an injected perturbation.
func (s *StreamSummary) UnexplainedMisses() int64 { return s.Misses - s.ExplainedMisses }

// NewStream prepares a metered run on cores physical cores. Energy is
// metered under the SleepBreakEven policies (the SDEM convention).
func NewStream(sys power.System, cores int) (*Stream, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if cores <= 0 {
		return nil, fmt.Errorf("sim: streaming run needs an explicit core count, got %d", cores)
	}
	return &Stream{
		sys:   sys,
		cores: cores,
		jobs:  make(map[int]*Job, 64),
	}, nil
}

// NewRecorder prepares a recorded run over the task set, validated as a
// whole up front. cores is the number of physical cores (0 means one per
// task). The schedule horizon is [earliest release, latest deadline];
// SetHorizon overrides it.
func NewRecorder(tasks task.Set, sys power.System, cores int) (*Stream, error) {
	if err := tasks.Validate(); err != nil {
		return nil, err
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if cores <= 0 {
		cores = len(tasks)
	}
	start, end := tasks.Span()
	s := &Stream{
		sys:     sys,
		cores:   cores,
		jobs:    make(map[int]*Job, len(tasks)),
		now:     start,
		started: true,
		start:   start,
		tasks:   tasks.Clone(),
		// One slab for every job of the run instead of a per-task
		// allocation: the serve path records a run per request, so
		// construction cost is user-visible.
		slab:  make([]Job, len(tasks)),
		sched: schedule.New(cores, start, end),
	}
	s.tasks.SortByRelease()
	return s, nil
}

// Tasks returns the release-sorted input set of a recorded run (nil on a
// metered stream).
func (s *Stream) Tasks() task.Set { return s.tasks }

// System returns the platform model.
func (s *Stream) System() power.System { return s.sys }

// Cores returns the physical core count of the run.
func (s *Stream) Cores() int { return s.cores }

// Now returns the latest time any segment has been emitted up to.
func (s *Stream) Now() float64 { return s.now }

// Active returns the number of admitted, unfinished jobs.
func (s *Stream) Active() int { return s.active }

// Job returns the admitted job of the given task ID, or nil. A metered
// stream forgets jobs as they retire; a recorded one keeps them all.
func (s *Stream) Job(id int) *Job { return s.jobs[id] }

// SetTelemetry attaches a telemetry recorder; who names the policy
// driving the stream and becomes the "sched" label on every sdem.sim.*
// metric (empty for unlabeled). A nil recorder disables instrumentation.
func (s *Stream) SetTelemetry(tel *telemetry.Recorder, who string) {
	s.tel = tel
	s.telLabel = ""
	if who != "" {
		s.telLabel = "sched=" + who
	}
}

// SetSpeedLimiter installs an execution-time speed perturbation applied
// to every subsequent Run. A nil limiter removes it.
func (s *Stream) SetSpeedLimiter(f SpeedLimiter) { s.limiter = f }

// SetHorizon overrides the audit horizon of a recorded run. A replay of
// an existing schedule uses this so idle and sleep intervals are
// accounted over the same span as the input. End may still grow if
// execution runs past it. A metered stream ignores it.
func (s *Stream) SetHorizon(start, end float64) {
	if s.sched != nil && end > start {
		s.sched.Start, s.sched.End = start, end
		if start > s.now {
			s.now = start
		}
	}
}

// SetPolicies sets the sleep policies a recorded run is audited under,
// so a replay is accounted under the same conventions as the schedule it
// replays. A metered stream ignores it.
func (s *Stream) SetPolicies(core, mem schedule.SleepPolicy) {
	if s.sched != nil {
		s.sched.CorePolicy = core
		s.sched.MemoryPolicy = mem
	}
}

// SetMissClassifier installs the explained-miss predicate (see the
// classify field). It must be set before the first miss retires.
func (s *Stream) SetMissClassifier(f func(*Job) bool) { s.classify = f }

// SetRetireHook installs the per-completion observer (see the onRetire
// field). A nil hook removes it.
func (s *Stream) SetRetireHook(f func(j *Job, response float64)) { s.onRetire = f }

// Completed returns the number of jobs a metered stream retired so far.
func (s *Stream) Completed() int64 { return s.completed }

// EnergySoFar returns the meter's running energy total — monotone
// non-decreasing across Seal boundaries, 0 before the first admission
// and on a recorded stream.
func (s *Stream) EnergySoFar() float64 {
	if s.meter == nil {
		return 0
	}
	return s.meter.Running()
}

// Admit registers a newly arrived task instance. A metered stream opens
// its meter's horizon at the first admitted release. A zero-workload
// task is born complete.
func (s *Stream) Admit(t task.Task) (*Job, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if _, dup := s.jobs[t.ID]; dup {
		return nil, fmt.Errorf("sim: duplicate task ID %d", t.ID)
	}
	if !s.started {
		s.started = true
		s.start = t.Release
		s.now = t.Release
		s.meter = schedule.NewMeter(s.cores, t.Release, s.sys, schedule.SleepBreakEven, schedule.SleepBreakEven)
	}
	var j *Job
	switch n := len(s.free); {
	case len(s.slab) > 0: // recorded: the slab holds every job of the run
		j = &s.slab[0]
		s.slab = s.slab[1:]
	case n > 0: // metered: recycle a retired job
		j = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	default:
		//lint:allow hotalloc: jobs are recycled; allocation happens only while the active set grows to its high-water size
		j = &Job{}
	}
	*j = Job{Task: t, Remaining: t.Workload, Core: -1, Done: numeric.IsZero(t.Workload, 0)}
	if s.sched != nil {
		s.jobs[t.ID] = j
		if !j.Done {
			s.active++
		}
		return j, nil
	}
	if j.Done {
		s.free = append(s.free, j)
		return j, nil
	}
	s.jobs[t.ID] = j
	s.active++
	s.admitted++
	s.tel.CountL("sdem.sim.admitted", s.telLabel, 1)
	if s.active > s.maxActive {
		s.maxActive = s.active
	}
	return j, nil
}

// Run executes the job on the given core from t0 to t1 at the given
// speed, emitting a segment and decrementing the remaining workload. The
// executed work is capped at the job's remaining amount (the segment is
// shortened accordingly). It returns the actual segment end time. Every
// planned segment of every online run lands here.
//
//sdem:hotpath
func (s *Stream) Run(taskID, core int, t0, t1, speed float64) (float64, error) {
	j, ok := s.jobs[taskID]
	switch {
	case !ok:
		return 0, fmt.Errorf("sim: unknown task %d", taskID)
	case j.Done:
		return 0, fmt.Errorf("sim: task %d already complete", taskID)
	case t1 <= t0 || speed <= 0:
		return 0, fmt.Errorf("sim: bad segment [%g,%g] speed %g for task %d", t0, t1, speed, taskID)
	case t0 < j.Task.Release-schedule.Tol:
		return 0, fmt.Errorf("sim: task %d started at %g before release %g", taskID, t0, j.Task.Release)
	case core < 0 || core >= s.cores:
		return 0, fmt.Errorf("sim: core %d out of range", core)
	case j.Core >= 0 && j.Core != core:
		return 0, fmt.Errorf("sim: task %d would migrate from core %d to %d", taskID, j.Core, core)
	}
	t1, speed, capped, throttled := runSegment(j, s.sys, s.limiter, core, t0, t1, speed)
	if capped {
		s.tel.CountL("sdem.sim.speed_caps", s.telLabel, 1)
	}
	if throttled {
		s.tel.CountL("sdem.sim.throttles", s.telLabel, 1)
	}
	seg := schedule.Segment{TaskID: taskID, Start: t0, End: t1, Speed: speed}
	if s.sched != nil {
		s.sched.Add(core, seg)
	} else if err := s.meter.Add(core, seg); err != nil {
		return 0, err
	}
	s.tel.CountL("sdem.sim.segments", s.telLabel, 1)
	s.tel.ObserveL("sdem.sim.segment_s", s.telLabel, t1-t0)
	if t1 > s.now {
		s.now = t1
	}
	if j.Done {
		s.retire(j)
	}
	return t1, nil
}

// Seal forwards a planning-batch boundary to the meter: no future
// segment will start before next, and the energy finalized by the seal
// is flushed to the sdem.sim.metered_j float series so windowed
// telemetry sees energy accrue during the run instead of only at Finish,
// next to the sdem.solver.online.stream_virtual_s progress gauge a live
// scrape watches. A recorded stream has nothing to seal.
func (s *Stream) Seal(next float64) {
	if s.meter == nil {
		return
	}
	s.meter.Seal(next)
	if s.tel != nil {
		if cur := s.meter.Running(); cur > s.lastMetered {
			s.tel.AddL("sdem.sim.metered_j", s.telLabel, cur-s.lastMetered)
			s.lastMetered = cur
		}
		s.tel.Gauge("sdem.solver.online.stream_virtual_s", s.now-s.start)
	}
}

// retire takes a finished job out of the active count. A metered stream
// also accumulates its metrics and recycles it; a recorded one keeps it
// for Result.
func (s *Stream) retire(j *Job) {
	s.active--
	if s.sched != nil {
		return
	}
	delete(s.jobs, j.Task.ID)
	s.completed++
	s.tel.CountL("sdem.sim.completions", s.telLabel, 1)
	resp := j.Completed - j.Task.Release
	if s.onRetire != nil {
		s.onRetire(j, resp)
	}
	s.sumResp += resp
	s.maxResp = math.Max(s.maxResp, resp)
	s.sumLax += j.Task.Deadline - j.Completed
	if j.missed {
		s.recordMiss(j, schedule.Miss{
			TaskID:      j.Task.ID,
			Deadline:    j.Task.Deadline,
			CompletedAt: j.Completed,
			Lateness:    j.Completed - j.Task.Deadline,
		})
	}
	s.free = append(s.free, j)
}

func (s *Stream) recordMiss(j *Job, m schedule.Miss) {
	s.missed++
	if s.classify != nil {
		if s.classify(j) {
			s.explainedMisses++
		} else {
			s.tel.CountL("sdem.sim.unexplained_misses", s.telLabel, 1)
		}
	}
	if len(s.missSample) < missSampleCap {
		s.missSample = append(s.missSample, m)
	}
	s.tel.CountL("sdem.sim.misses", s.telLabel, 1)
}

// Finish closes a metered run: every still-active job is retired as an
// unfinished miss, the meter's horizon is closed at max(end, latest
// execution), and the summary is returned.
func (s *Stream) Finish(end float64) *StreamSummary {
	for _, j := range s.jobs {
		s.recordMiss(j, schedule.Miss{TaskID: j.Task.ID, Deadline: j.Task.Deadline, Remaining: j.Remaining})
	}
	for id := range s.jobs {
		delete(s.jobs, id)
	}
	s.active = 0
	var b schedule.Breakdown
	if s.meter != nil {
		b = s.meter.Finish(end)
	}
	if end < s.now {
		end = s.now
	}
	m := Metrics{Completed: int(s.completed)}
	if s.completed > 0 {
		m.MeanResponse = s.sumResp / float64(s.completed)
		m.MaxResponse = s.maxResp
		m.MeanLaxity = s.sumLax / float64(s.completed)
	}
	return &StreamSummary{
		Admitted:        s.admitted,
		Completed:       s.completed,
		Misses:          s.missed,
		ExplainedMisses: s.explainedMisses,
		MissSample:      s.missSample,
		Energy:          b.Total(),
		Breakdown:       b,
		Metrics:         m,
		Start:           s.start,
		End:             end,
		MaxActive:       s.maxActive,
	}
}

// Result closes a recorded run: it normalizes and audits the assembled
// schedule and reports misses and response metrics in the release order
// of the input set, every task of which must have been admitted.
func (s *Stream) Result() (*Result, error) {
	if s.sched == nil {
		return nil, errors.New("sim: Result needs a recorded stream")
	}
	s.sched.Normalize()
	var misses []int
	var details []schedule.Miss
	for _, t := range s.tasks {
		j := s.jobs[t.ID]
		if j == nil {
			return nil, fmt.Errorf("sim: task %d was never admitted", t.ID)
		}
		if !j.Done || j.missed {
			misses = append(misses, t.ID)
			m := schedule.Miss{TaskID: t.ID, Deadline: j.Task.Deadline}
			if j.Done {
				m.CompletedAt = j.Completed
				m.Lateness = j.Completed - j.Task.Deadline
			} else {
				m.Remaining = j.Remaining
			}
			details = append(details, m)
		}
	}
	// Extend the horizon if execution ran past the last deadline (only
	// possible for missed schedules).
	if s.now > s.sched.End {
		s.sched.End = s.now
	}
	var m Metrics
	for _, t := range s.tasks {
		j := s.jobs[t.ID]
		if !j.Done || numeric.IsZero(j.Task.Workload, 0) {
			continue
		}
		resp := j.Completed - j.Task.Release
		m.MeanResponse += resp
		m.MaxResponse = math.Max(m.MaxResponse, resp)
		m.MeanLaxity += j.Task.Deadline - j.Completed
		m.Completed++
	}
	if m.Completed > 0 {
		m.MeanResponse /= float64(m.Completed)
		m.MeanLaxity /= float64(m.Completed)
	}
	b := schedule.Audit(s.sched, s.sys)
	if s.tel != nil {
		s.recordFinish(b, misses, m)
	}
	return &Result{
		Schedule:    s.sched,
		Misses:      misses,
		MissDetails: details,
		Energy:      b.Total(),
		Breakdown:   b,
		Metrics:     m,
	}, nil
}
