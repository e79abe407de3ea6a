package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// The host's speed is tracked with a reference kernel: fixed work, in
// this package and the standard library only, so no change to the
// repository's code changes it. A run times the kernel between its own
// operations and scales every wall-clock metric to reference speed,
// the speed at which the kernel takes refNominal.
const (
	// refNominal is the kernel's time at reference speed, about its
	// time on the calibration host in its fast state.
	refNominal = 100 * time.Microsecond
	// refEvery is the least time between two kernel runs of one client.
	refEvery = 10 * time.Millisecond
	// refSegment is the span over which the kernel's median time is the
	// host's slowdown. The calibration host switches speed over seconds.
	refSegment = 100 * time.Millisecond
)

// refRecord is one record of the kernel's input.
type refRecord struct {
	ID       int     `json:"id"`
	Release  float64 `json:"release"`
	Deadline float64 `json:"deadline"`
	Workload float64 `json:"workload"`
}

// refInput is the kernel's input: 40 records as JSON.
var refInput = func() []byte {
	recs := make([]refRecord, 40)
	x := 0.5
	for i := range recs {
		x = 3.7 * x * (1 - x)
		recs[i] = refRecord{ID: i, Release: x, Deadline: x + 1, Workload: x * 1e6}
	}
	b, err := json.Marshal(recs)
	if err != nil {
		panic(err)
	}
	return b
}()

// refSink keeps the kernel's result alive.
var refSink []byte

// refKernel decodes refInput, derives and sorts 400 numbers, folds them
// back in and encodes the records again: the decode, float, sort,
// allocate and encode mix of a serve request, at a fixed size.
func refKernel() {
	var recs []refRecord
	if err := json.Unmarshal(refInput, &recs); err != nil {
		panic(err)
	}
	xs := make([]float64, 0, 10*len(recs))
	for _, r := range recs {
		for k := 1; k <= 10; k++ {
			xs = append(xs, r.Workload*float64(k)/(r.Deadline+float64(k)))
		}
	}
	sort.Float64s(xs)
	for i, x := range xs {
		recs[i%len(recs)].Workload += x
	}
	refSink, _ = json.Marshal(recs)
}

// hostMeter records the kernel's times through a run.
type hostMeter struct {
	epoch   time.Time
	mu      sync.Mutex
	samples []opSample
}

func newHostMeter(epoch time.Time) *hostMeter { return &hostMeter{epoch: epoch} }

// sampleEvery runs the kernel and records its time when refEvery has
// passed since *last, the caller's previous run of it.
func (h *hostMeter) sampleEvery(last *time.Time) {
	if time.Since(*last) < refEvery {
		return
	}
	t0 := time.Now()
	refKernel()
	*last = time.Now()
	h.mu.Lock()
	h.samples = append(h.samples, opSample{start: t0.Sub(h.epoch), dur: last.Sub(t0)})
	h.mu.Unlock()
}

// slowdown is the host's slowdown through a run, one factor per
// refSegment from the epoch: 2 means the kernel took twice refNominal.
type slowdown []float64

// profile reduces the recorded kernel times to a slowdown. A segment
// without a kernel run takes the nearest earlier one's factor, or the
// first one's.
func (h *hostMeter) profile() slowdown {
	h.mu.Lock()
	defer h.mu.Unlock()
	var segs [][]float64
	for _, s := range h.samples {
		k := int(s.start / refSegment)
		for len(segs) <= k {
			segs = append(segs, nil)
		}
		segs[k] = append(segs[k], float64(s.dur)/float64(refNominal))
	}
	f := make(slowdown, len(segs))
	first := -1
	for k, xs := range segs {
		switch {
		case len(xs) > 0:
			f[k] = median(xs)
			if first < 0 {
				first = k
			}
		case k > 0:
			f[k] = f[k-1]
		}
	}
	for k := 0; k < first; k++ {
		f[k] = f[first]
	}
	return f
}

// at is the slowdown at time t from the epoch.
func (f slowdown) at(t time.Duration) float64 {
	k := int(t / refSegment)
	return f[max(0, min(k, len(f)-1))]
}

// scaled is the length of the span at reference speed, in seconds: its
// wall time divided by the slowdown, segment by segment.
func (f slowdown) scaled(span opSample) float64 {
	var s float64
	for t, end := span.start, span.start+span.dur; t < end; {
		next := min(end, (t/refSegment+1)*refSegment)
		s += (next - t).Seconds() / f.at(t)
		t = next
	}
	return s
}

// typical is the median slowdown over the spans' segments.
func (f slowdown) typical(spans []opSample) float64 {
	var xs []float64
	for _, sp := range spans {
		for t := sp.start; t < sp.start+sp.dur; t += refSegment {
			xs = append(xs, f.at(t))
		}
	}
	return median(xs)
}
