package main

import (
	"syscall"
	"time"

	"sdem/internal/telemetry/series"
)

// sketchAlpha is the relative accuracy of the benchmark's quantiles:
// every one comes from a series.Sketch and lies within 0.1% of an exact
// order statistic, well inside the run-to-run spread.
const sketchAlpha = 0.001

func newSketch() *series.Sketch { return series.NewSketch(sketchAlpha) }

// opSample is one timed operation, or span: its start, relative to the
// run's epoch, and its duration.
type opSample struct {
	start, dur time.Duration
}

// summary is the end-to-end reduction of a timed phase.
type summary struct {
	opsPerS, p50, p99 float64
}

// summarize reduces a timed phase: ops timed within spans, each op
// perOp work items. Under slowdown f every op's duration, and every
// span's length, is first scaled to reference speed; f == nil leaves
// them at wall-clock time. Throughput is the work over the spans'
// total length; p50 and p99 come from a series.Sketch over every op.
func summarize(ops, spans []opSample, perOp float64, f slowdown) summary {
	sk := newSketch()
	for _, op := range ops {
		d := ms(op.dur)
		if f != nil {
			d /= f.at(op.start)
		}
		sk.Observe(d)
	}
	var length float64
	for _, sp := range spans {
		if f != nil {
			length += f.scaled(sp)
		} else {
			length += sp.dur.Seconds()
		}
	}
	return summary{opsPerS: float64(len(ops)) * perOp / length, p50: sk.Quantile(0.50), p99: sk.Quantile(0.99)}
}

// setupSeconds is the median length of the set-up spans at reference
// speed.
func setupSeconds(spans []opSample, f slowdown) float64 {
	xs := make([]float64, len(spans))
	for i, sp := range spans {
		xs[i] = f.scaled(sp)
	}
	return median(xs)
}

// median is the sketched median of xs.
func median(xs []float64) float64 {
	sk := newSketch()
	for _, x := range xs {
		sk.Observe(x)
	}
	return sk.Quantile(0.5)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime returns the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
