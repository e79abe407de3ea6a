package telemetry

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sample builds a recorder with a fixed, representative set of metrics
// and events — the fixture behind the golden tests.
func sample() *Recorder {
	r := New()
	r.RegisterHistogram("sdem.test.saving", BucketsRatio)
	r.Count("sdem.test.events", 3)
	r.CountL("sdem.test.events", "kind=wake", 2)
	r.Add("sdem.test.energy_j", 1.25)
	r.AddL("sdem.test.energy_j", "component=static", 0.75)
	r.Gauge("sdem.test.speed", 0.6)
	r.Observe("sdem.test.saving", 0.05)
	r.Observe("sdem.test.saving", -0.3)
	r.Observe("sdem.test.saving", 0.7)
	r.Span("run", "sim", 0.5, 1.75, 1, Str("task", "t3"), Num("speed", 0.8))
	r.Span("memory sleep", "sim", 2, 2.5, 0)
	r.Instant("recovery", "resilient", 1.9, 2, Str("action", "boost"))
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestGoldenMetrics(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.golden", buf.Bytes())
}

func TestGoldenChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.chrome.golden", buf.Bytes())
}

func TestNilRecorderNoops(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Count("x", 1)
	r.CountL("x", "a=b", 1)
	r.Add("x", 1)
	r.Gauge("x", 1)
	r.Observe("x", 1)
	r.RegisterHistogram("x", BucketsCount)
	r.Span("s", "c", 0, 1, 0)
	r.Instant("i", "c", 0, 0)
	r.Merge(New())
	if c := r.Child(3); c != nil {
		t.Fatalf("nil.Child = %v, want nil", c)
	}
	if ev := r.Events(); ev != nil {
		t.Fatalf("nil.Events = %v, want nil", ev)
	}
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil.WriteMetrics wrote %q, err %v", buf.String(), err)
	}
	if err := r.WriteChromeTrace(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil.WriteChromeTrace wrote %q, err %v", buf.String(), err)
	}
	var p *Profiler
	p.Start("f")()
	if pp := p.Pool("f"); pp != nil {
		t.Fatal("nil profiler returned non-nil pool")
	}
	var pp *PoolProfile
	pp.PoolStart(4, 10)
	pp.TaskStart()()
	if err := p.Report(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil profiler Report wrote %q, err %v", buf.String(), err)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := New()
	r.RegisterHistogram("h", []float64{1, 2, 5})
	// Exactly-on-edge goes into that bucket (v ≤ edge semantics).
	for _, v := range []float64{1, 2, 5} {
		r.Observe("h", v)
	}
	r.Observe("h", 0.5)          // below first edge
	r.Observe("h", 5.0000001)    // just past last edge → +Inf
	r.Observe("h", math.Inf(1))  // +Inf → overflow
	r.Observe("h", math.Inf(-1)) // -Inf → first bucket
	r.Observe("h", math.NaN())   // dropped
	h := r.hists[key{"h", ""}]
	wantCounts := []uint64{3, 1, 1, 2} // (-Inf,1]=1,0.5,-Inf; (1,2]=2; (2,5]=5; +Inf=2
	if !reflect.DeepEqual(h.counts, wantCounts) {
		t.Errorf("counts = %v, want %v", h.counts, wantCounts)
	}
	if h.count != 7 {
		t.Errorf("count = %d, want 7 (NaN dropped)", h.count)
	}
	if h.min != math.Inf(-1) || h.max != math.Inf(1) {
		t.Errorf("min/max = %v/%v", h.min, h.max)
	}
}

func TestHistogramBadLayoutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing edges did not panic")
		}
	}()
	New().RegisterHistogram("bad", []float64{1, 1})
}

func TestEmptyHistogramDump(t *testing.T) {
	r := New()
	r.RegisterHistogram("empty", []float64{1, 2})
	r.ObserveL("empty", "", 1.5) // create, then rebuild empty via merge path
	r2 := New()
	r2.RegisterHistogram("empty", []float64{1, 2})
	// Force an empty histogram instance via the lazy accessor.
	r2.mu.Lock()
	r2.hist(key{"empty", ""})
	r2.mu.Unlock()
	var buf bytes.Buffer
	if err := r2.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hist empty{} count=0 sum=0 min=0 max=0") {
		t.Errorf("empty histogram summary malformed:\n%s", out)
	}
}

// TestMergeOrderIndependentOfComputationOrder is the core of the
// worker-count determinism contract: children produced in any execution
// order, merged in index order, give byte-identical dumps.
func TestMergeOrderIndependentOfComputationOrder(t *testing.T) {
	build := func(pid int) *Recorder {
		c := New().Child(pid)
		c.Count("n", int64(pid)+1)
		c.Add("sum", 0.1*float64(pid+1))
		c.Observe("sdem.test", float64(pid))
		c.Gauge("last", float64(pid))
		c.Instant("point", "sweep", float64(pid), 0, Int("i", int64(pid)))
		return c
	}
	dump := func(children []*Recorder) string {
		root := New()
		for _, c := range children {
			root.Merge(c)
		}
		var buf bytes.Buffer
		if err := root.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		var tr bytes.Buffer
		if err := root.WriteChromeTrace(&tr); err != nil {
			t.Fatal(err)
		}
		return buf.String() + tr.String()
	}
	// "Sequential" children vs. children built in scrambled order: the
	// merge order (index order) is what matters, not build order.
	seq := []*Recorder{build(0), build(1), build(2), build(3)}
	scrambled := make([]*Recorder, 4)
	for _, i := range []int{2, 0, 3, 1} {
		scrambled[i] = build(i)
	}
	if a, b := dump(seq), dump(scrambled); a != b {
		t.Errorf("merged dumps differ:\n%s\nvs\n%s", a, b)
	}
}

func TestChildInheritsLayouts(t *testing.T) {
	r := New()
	r.RegisterHistogram("h", []float64{10, 20})
	c := r.Child(1)
	c.Observe("h", 15)
	r.Merge(c)
	h := r.hists[key{"h", ""}]
	if h == nil || len(h.edges) != 2 {
		t.Fatalf("child did not inherit layout: %+v", h)
	}
	if h.counts[1] != 1 {
		t.Errorf("counts = %v, want observation in (10,20]", h.counts)
	}
}

func TestEventsSorted(t *testing.T) {
	r := New()
	r.Instant("b", "c", 2, 1)
	r.Instant("a", "c", 1, 0)
	c := r.Child(0) // pid 0 child events must interleave by ts with root pid-0 events
	c.Instant("mid", "c", 1.5, 0)
	r.Merge(c)
	ev := r.Events()
	var names []string
	for _, e := range ev {
		names = append(names, e.Name)
	}
	want := []string{"a", "mid", "b"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("event order = %v, want %v", names, want)
	}
}

func TestNegativeSpanClamped(t *testing.T) {
	r := New()
	r.Span("s", "c", 2, 1, 0)
	ev := r.Events()
	if len(ev) != 1 || ev[0].Dur != 0 {
		t.Errorf("events = %+v, want single zero-duration span", ev)
	}
}

func TestProfilerReport(t *testing.T) {
	p := NewProfiler()
	stop := p.Start("fam")
	stop()
	pp := p.Pool("fam")
	pp.PoolStart(2, 4)
	done := pp.TaskStart()
	done()
	var buf bytes.Buffer
	if err := p.Report(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"family fam", "runs=1", "workers=2", "tasks=1", "peak=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	fams := p.Families()
	if len(fams) != 1 || fams[0].Name != "fam" {
		t.Errorf("Families() = %+v", fams)
	}
}
