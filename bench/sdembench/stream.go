package main

import (
	"fmt"
	"os"
	"time"

	"sdem/internal/faults"
	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/sim"
	"sdem/internal/stats"
	"sdem/internal/task"
	"sdem/internal/telemetry"
	"sdem/internal/workload"
)

const (
	streamCores    = 8
	faultIntensity = 0.6
	// blockArrivals is the stream's timed op: the latency metrics time
	// blocks of this many arrivals, too short to time one by one.
	blockArrivals = 1024
	// costArrivals bounds the arrivals re-drawn to time the source and
	// the fault sampler alone.
	costArrivals = 200_000
)

// streamSource draws the stream-soak arrivals: §8.1.2 sporadic tasks at
// most 50 ms apart. limit ≤ 0 is unbounded.
func streamSource(seed int64, limit int64) (workload.Source, error) {
	return workload.SporadicStream(workload.SyntheticConfig{MaxInterArrival: power.Milliseconds(50)}, seed, limit)
}

// timedSource passes src's arrivals through until deadline, if set, and
// times every block of blockArrivals arrivals. Between blocks it times
// the host, outside the blocks' times.
type timedSource struct {
	src      workload.Source
	host     *hostMeter
	deadline time.Time
	n        int64
	last     time.Time
	lastRef  time.Time
	blocks   []opSample
}

func (s *timedSource) Next() (task.Task, bool) {
	if s.n%blockArrivals == 0 {
		now := time.Now()
		if s.n > 0 {
			s.blocks = append(s.blocks, opSample{start: s.last.Sub(s.host.epoch), dur: now.Sub(s.last)})
		}
		if !s.deadline.IsZero() && !now.Before(s.deadline) {
			return task.Task{}, false
		}
		s.host.sampleEvery(&s.lastRef)
		s.last = time.Now()
	}
	t, ok := s.src.Next()
	if ok {
		s.n++
	}
	return t, ok
}

// checkStream verifies a stream's accounting: every emitted arrival was
// admitted, every admitted job either completed or missed (a late job
// is both), and every miss is explained by an injected fault or by the
// machine being full.
func checkStream(sum *sim.StreamSummary, emitted int64) error {
	switch {
	case sum.Admitted != emitted:
		return fmt.Errorf("check: stream admitted %d of %d arrivals", sum.Admitted, emitted)
	case sum.Completed > sum.Admitted || sum.Completed+sum.Misses < sum.Admitted:
		return fmt.Errorf("check: %d admitted jobs, but %d completed and %d missed", sum.Admitted, sum.Completed, sum.Misses)
	case sum.UnexplainedMisses() > 0:
		return fmt.Errorf("check: %d unexplained misses of %d", sum.UnexplainedMisses(), sum.Misses)
	}
	return nil
}

// streamSpec is the stream-soak workload: warm is the length of each
// set-up's warm-up stream.
type streamSpec struct {
	warm int64
}

var streamSoak = streamSpec{warm: 100_000}

// streamWorkload returns the stream-soak runner.
func streamWorkload(sp streamSpec) workloadRun {
	return func(o options) (int64, int64, map[string]float64, error) {
		return runStream(sp, o)
	}
}

// runStream warms the engine up several times on the corpus, a short
// faulted stream (the set-up), then runs online.ScheduleStream under
// fault injection over one unbounded source drawn from o.seed for
// o.seconds. energy_per_task_j is the corpus's, and every set-up must
// schedule it with the same energy. The times are scaled to reference
// speed by the host's slowdown.
func runStream(sp streamSpec, o options) (int64, int64, map[string]float64, error) {
	sys := power.DefaultSystem()
	host := newHostMeter(time.Now())
	corpusFaults := faults.NewStreamer(faults.Config{Intensity: faultIntensity}, stats.DeriveSeed(corpusSeed, tagFaults))
	var (
		setupSpans []opSample
		energy     float64
	)
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		src, err := streamSource(stats.DeriveSeed(corpusSeed, tagWarm), sp.warm)
		if err != nil {
			return 0, 0, nil, err
		}
		sum, err := online.ScheduleStream(&timedSource{src: src, host: host}, sys, online.StreamOptions{Cores: streamCores, Faults: corpusFaults})
		if err != nil {
			return 0, 0, nil, fmt.Errorf("warm-up: %w", err)
		}
		setupSpans = append(setupSpans, opSample{start: t0.Sub(host.epoch), dur: time.Since(t0)})
		if err := checkStream(sum, sp.warm); err != nil {
			return 0, 0, nil, fmt.Errorf("warm-up: %w", err)
		}
		e := sum.Energy / float64(sum.Admitted)
		if k > 0 && e != energy {
			return 0, 0, nil, fmt.Errorf("check: set-up %d scheduled the corpus with %.17g J per task, set-up 0 with %.17g", k, e, energy)
		}
		energy = e
	}

	fs := faults.NewStreamer(faults.Config{Intensity: faultIntensity}, stats.DeriveSeed(o.seed, tagFaults))
	src, err := streamSource(stats.DeriveSeed(o.seed, tagStream), 0)
	if err != nil {
		return 0, 0, nil, err
	}
	ts := &timedSource{src: src, host: host}
	opts := online.StreamOptions{Cores: streamCores, Faults: fs}
	if o.trace {
		opts.Telemetry = telemetry.New()
	}
	rt0 := readRuntime()
	t0 := time.Now()
	ts.deadline = t0.Add(o.seconds)
	sum, err := online.ScheduleStream(ts, sys, opts)
	elapsed := time.Since(t0)
	rt1 := readRuntime()
	if err != nil {
		return ts.n, 0, nil, err
	}
	failed := sum.UnexplainedMisses()
	if err := checkStream(sum, ts.n); err != nil {
		return ts.n, failed, nil, err
	}

	spans := []opSample{{start: t0.Sub(host.epoch), dur: elapsed}}
	slow := host.profile()
	ref, wall := summarize(ts.blocks, spans, blockArrivals, slow), summarize(ts.blocks, spans, blockArrivals, nil)
	v := map[string]float64{
		"setup_s":           setupSeconds(setupSpans, slow),
		"ops_per_s":         ref.opsPerS,
		"p50_ms":            ref.p50,
		"p99_ms":            ref.p99,
		"energy_per_task_j": energy,
	}
	fmt.Fprintf(os.Stderr, "%s: %d arrivals in %d blocks over %.2fs, %d misses (%d explained), max_active %d; wall clock %.5g arrivals/s, p50 %.4g ms, p99 %.4g ms; host slowdown %.3g\n",
		o.workload, ts.n, len(ts.blocks), elapsed.Seconds(), sum.Misses, sum.ExplainedMisses, sum.MaxActive, wall.opsPerS, wall.p50, wall.p99, slow.typical(spans))
	if !o.trace {
		return ts.n, failed, v, nil
	}

	var blockMs float64
	for _, b := range ts.blocks {
		blockMs += ms(b.dur)
	}
	v["bench.op_mean_ms"] = blockMs / float64(len(ts.blocks))
	v["bench.host_slowdown"] = slow.typical(spans)
	perArrivalNs := float64(elapsed.Nanoseconds()) / float64(ts.n)
	nextNs, sampleNs, err := sourceCosts(o.seed, fs, min(ts.n, costArrivals))
	if err != nil {
		return ts.n, failed, nil, err
	}
	v["workload.next_share"] = nextNs / perArrivalNs
	v["faults.sample_share"] = sampleNs / perArrivalNs
	v["online.engine_share"] = 1 - (nextNs+sampleNs)/perArrivalNs
	c := recorderCounters(opts.Telemetry)
	if plans := float64(c.sum("sdem.solver.online.plans", "")); plans > 0 {
		v["online.skipped_solve_frac"] = float64(c.sum("sdem.solver.online.skipped_solves", "")) / plans
		v["online.plan_reuse_frac"] = float64(c.sum("sdem.solver.online.plan_reuse", "")) / plans
	}
	admitted := float64(sum.Admitted)
	v["sim.segments_per_task"] = float64(c.sum("sdem.sim.segments", "")) / admitted
	v["sim.sleeps_per_task"] = float64(sum.Breakdown.CoreSleeps+sum.Breakdown.MemorySleeps) / admitted
	v["sim.max_active"] = float64(sum.MaxActive)
	v["sim.explained_miss_frac"] = float64(sum.ExplainedMisses) / admitted
	rt1.report(v, rt0, float64(ts.n))
	return ts.n, failed, v, nil
}

// sourceCosts times, per arrival, an identical source drained alone and
// the fault sampler over the same n tasks.
func sourceCosts(seed int64, fs *faults.Streamer, n int64) (nextNs, sampleNs float64, err error) {
	src, err := streamSource(stats.DeriveSeed(seed, tagStream), n)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for {
		if _, ok := src.Next(); !ok {
			break
		}
	}
	nextNs = float64(time.Since(t0).Nanoseconds()) / float64(n)

	if src, err = streamSource(stats.DeriveSeed(seed, tagStream), n); err != nil {
		return 0, 0, err
	}
	tasks := workload.Collect(src, int(n))
	t0 = time.Now()
	for _, t := range tasks {
		fs.Sample(t)
	}
	sampleNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return nextNs, sampleNs, nil
}
