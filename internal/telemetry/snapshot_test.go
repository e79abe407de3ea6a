package telemetry

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestSnapshotNil guards the disabled-telemetry invariant for snapshots:
// a nil recorder snapshots to the empty state without allocating, so the
// nil path of a snapshot-driven exporter is a true no-op. The companion
// BenchmarkSnapshotDisabled (alongside BenchmarkTelemetryDisabled) keeps
// the same guarantee visible in bench output.
func TestSnapshotNil(t *testing.T) {
	var r *Recorder
	s := r.Snapshot()
	if !s.Empty() {
		t.Fatalf("nil recorder snapshot not empty: %+v", s)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		snapSink = r.Snapshot()
	}); allocs != 0 {
		t.Fatalf("nil Snapshot allocates %v allocs/op, want 0", allocs)
	}
}

// TestSnapshotCopies checks that a snapshot is a stable copy: mutating
// the recorder after Snapshot must not change the snapshot, and the
// slices come out in sorted (name, labels) order.
func TestSnapshotCopies(t *testing.T) {
	r := New()
	r.Count("b.counter", 2)
	r.CountL("a.counter", "k=v", 1)
	r.Add("a.float", 1.5)
	r.Gauge("a.gauge", 7)
	r.RegisterHistogram("a.hist", []float64{1, 2})
	r.Observe("a.hist", 1.5)

	s := r.Snapshot()
	r.Count("b.counter", 40)
	r.Observe("a.hist", 0.5)

	wantCounters := []CounterPoint{
		{Name: "a.counter", Labels: "k=v", Value: 1},
		{Name: "b.counter", Value: 2},
	}
	if !reflect.DeepEqual(s.Counters, wantCounters) {
		t.Errorf("counters = %+v, want %+v", s.Counters, wantCounters)
	}
	if len(s.Hists) != 1 {
		t.Fatalf("hists = %+v, want one", s.Hists)
	}
	h := s.Hists[0]
	if h.Count != 1 || h.Sum != 1.5 || h.Min != 1.5 || h.Max != 1.5 {
		t.Errorf("hist summary = %+v, want count 1 sum/min/max 1.5", h)
	}
	if want := []uint64{0, 1, 0}; !reflect.DeepEqual(h.Counts, want) {
		t.Errorf("hist counts = %v, want %v (snapshot must not see later observations)", h.Counts, want)
	}
}

// TestSnapshotEmptyHistMinMax checks the zeroed min/max convention for
// histograms that exist but saw no (finite) observations — the same
// convention WriteMetrics uses, so exporters never see ±Inf sentinels.
func TestSnapshotEmptyHistMinMax(t *testing.T) {
	r := New()
	r.Observe("h", math.NaN()) // creates the histogram, records nothing
	s := r.Snapshot()
	if len(s.Hists) != 1 {
		t.Fatalf("unexpected hists %+v", s.Hists)
	}
	h := s.Hists[0]
	if h.Count != 0 || h.Min != 0 || h.Max != 0 {
		t.Errorf("empty hist = %+v, want count 0 and zeroed min/max", h)
	}
}

// TestMergeMetrics checks that MergeMetrics folds every metric kind but
// drops the child's trace events.
func TestMergeMetrics(t *testing.T) {
	r := New()
	c := r.Child(3)
	c.Count("n", 1)
	c.Add("f", 2.5)
	c.Gauge("g", 4)
	c.Observe("h", 0.01)
	c.Span("work", "test", 0, 1, 0)

	r.MergeMetrics(c)
	if got := len(r.Events()); got != 0 {
		t.Errorf("MergeMetrics copied %d events, want 0", got)
	}
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 1 {
		t.Errorf("counters = %+v", s.Counters)
	}
	if len(s.Floats) != 1 || s.Floats[0].Value != 2.5 {
		t.Errorf("floats = %+v", s.Floats)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 4 {
		t.Errorf("gauges = %+v", s.Gauges)
	}
	if len(s.Hists) != 1 || s.Hists[0].Count != 1 {
		t.Errorf("hists = %+v", s.Hists)
	}
	// The child still owns its trace.
	if got := len(c.Events()); got != 1 {
		t.Errorf("child lost its events: %d, want 1", got)
	}
}

// TestExemplarFlow checks the exemplar pipeline end to end inside the
// recorder: ObserveExL pins per-bucket exemplars, merge propagates them
// child-wins, and Snapshot surfaces them sparse and bucket-sorted.
func TestExemplarFlow(t *testing.T) {
	r := New()
	r.RegisterHistogram("lat", []float64{0.1, 1, 10})
	c1 := r.Child(1)
	c1.ObserveExL("lat", "route=solve", 0.05, "trace_id=aaa")
	c1.ObserveExL("lat", "route=solve", 5, "trace_id=bbb")
	c1.ObserveL("lat", "route=solve", 0.5) // no exemplar for this bucket
	r.MergeMetrics(c1)
	c2 := r.Child(2)
	c2.ObserveExL("lat", "route=solve", 0.07, "trace_id=ccc") // overwrites bucket 0
	r.MergeMetrics(c2)

	s := r.Snapshot()
	if len(s.Hists) != 1 {
		t.Fatalf("hists = %+v", s.Hists)
	}
	want := []ExemplarPoint{
		{Bucket: 0, Labels: "trace_id=ccc", Value: 0.07},
		{Bucket: 2, Labels: "trace_id=bbb", Value: 5},
	}
	if !reflect.DeepEqual(s.Hists[0].Exemplars, want) {
		t.Errorf("exemplars = %+v, want %+v", s.Hists[0].Exemplars, want)
	}
	if got := s.Hists[0].Count; got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
}

// TestExemplarsAbsentFromMetricsDump pins the determinism boundary:
// exemplars carry wall-clock-seeded trace IDs, so they must never leak
// into the byte-stable WriteMetrics dump.
func TestExemplarsAbsentFromMetricsDump(t *testing.T) {
	with := New()
	with.ObserveExL("h", "", 0.5, "trace_id=deadbeef")
	without := New()
	without.Observe("h", 0.5)
	var a, b strings.Builder
	if err := with.WriteMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := without.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("exemplars perturb the metrics dump:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestConcurrentSnapshotMergeExemplars hammers the server-shaped
// lifecycle — many writers each spawning a child, recording labeled
// metrics with exemplars, and merging back, while a scraper snapshots
// concurrently — under -race, then checks the final dump and snapshot
// are complete and byte-stable.
func TestConcurrentSnapshotMergeExemplars(t *testing.T) {
	root := New()
	root.RegisterHistogram("lat", []float64{0.001, 0.01, 0.1, 1})
	const writers, perWriter = 8, 200

	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() { // concurrent scraper
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
				snapSink = root.Snapshot()
			}
		}
	}()
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				c := root.Child(w)
				c.CountL("req", "route=solve", 1)
				c.ObserveExL("lat", "route=solve", float64(i%7)*0.005, "trace_id=w"+strconv.Itoa(w))
				root.MergeMetrics(c)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	<-scraperDone

	s := root.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != writers*perWriter {
		t.Fatalf("counters = %+v, want one req counter at %d", s.Counters, writers*perWriter)
	}
	if len(s.Hists) != 1 || s.Hists[0].Count != writers*perWriter {
		t.Fatalf("hists = %+v, want one lat hist at %d", s.Hists, writers*perWriter)
	}
	if len(s.Hists[0].Exemplars) == 0 {
		t.Error("no exemplars survived the merges")
	}
	// Byte-stability: repeated dumps of the now-quiescent state match.
	var d1, d2 strings.Builder
	if err := root.WriteMetrics(&d1); err != nil {
		t.Fatal(err)
	}
	if err := root.WriteMetrics(&d2); err != nil {
		t.Fatal(err)
	}
	if d1.String() != d2.String() {
		t.Error("metrics dump not byte-stable across repeated writes")
	}
}

var snapSink Snapshot

// BenchmarkSnapshotDisabled proves the nil-recorder snapshot path costs
// nothing: 0 allocs/op, like every other disabled-telemetry operation.
func BenchmarkSnapshotDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		snapSink = r.Snapshot()
	}
}
