package series

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sdem/internal/telemetry"
)

// event is one synthetic recorder mutation at a virtual-time clock.
type event struct {
	clock   float64
	counter string
	n       int64
	float   string
	fv      float64
	gauge   string
	gv      float64
	obs     string
	ov      float64
	hist    string
	hv      float64
}

// genEvents builds a deterministic mixed workload of recorder traffic.
func genEvents(seed int64, n int) []event {
	r := rand.New(rand.NewSource(seed))
	evs := make([]event, 0, n)
	clock := 0.0
	for i := 0; i < n; i++ {
		clock += r.ExpFloat64() * 0.5
		ev := event{clock: clock}
		switch r.Intn(5) {
		case 0:
			ev.counter, ev.n = fmt.Sprintf("c%d", r.Intn(3)), int64(1+r.Intn(4))
		case 1:
			ev.float, ev.fv = fmt.Sprintf("f%d", r.Intn(3)), r.Float64()
		case 2:
			ev.gauge, ev.gv = "depth", r.Float64()*10
		case 3:
			ev.obs, ev.ov = "resp", r.ExpFloat64()*0.01
		case 4:
			ev.hist, ev.hv = "lat", r.ExpFloat64()*0.1
		}
		evs = append(evs, ev)
	}
	return evs
}

// replay drives the events through a fresh recorder + collector at the
// given window interval, advancing the clock at every event.
func replay(t *testing.T, evs []event, interval float64) *Series {
	t.Helper()
	rec := telemetry.New()
	rec.RegisterHistogram("lat", telemetry.BucketsSeconds)
	col, err := NewCollector(rec, ClockVirtual, interval)
	if err != nil {
		t.Fatal(err)
	}
	col.Advance(0)
	end := 0.0
	for _, ev := range evs {
		col.Advance(ev.clock)
		switch {
		case ev.counter != "":
			rec.Count(ev.counter, ev.n)
		case ev.float != "":
			rec.Add(ev.float, ev.fv)
		case ev.gauge != "":
			rec.Gauge(ev.gauge, ev.gv)
		case ev.obs != "":
			col.Observe(ev.obs, ev.ov)
		case ev.hist != "":
			rec.Observe(ev.hist, ev.hv)
		}
		end = ev.clock
	}
	return col.Finish(end)
}

// TestCoalesceEqualsRecompute is satellite property (a): capturing fine
// windows and coalescing them must equal capturing coarse windows
// directly — exactly for counts, sketches, and gauges, and to 1e-9 for
// float accumulations.
func TestCoalesceEqualsRecompute(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		evs := genEvents(seed, 4000)
		fine := replay(t, evs, 5)
		coarse := replay(t, evs, 10)
		co, err := fine.Coalesce(2)
		if err != nil {
			t.Fatal(err)
		}
		if co.Interval != coarse.Interval {
			t.Fatalf("coalesced interval %g != coarse %g", co.Interval, coarse.Interval)
		}
		if len(co.Windows) != len(coarse.Windows) {
			t.Fatalf("seed %d: coalesced %d windows, coarse %d", seed, len(co.Windows), len(coarse.Windows))
		}
		for i := range co.Windows {
			a, b := co.Windows[i], coarse.Windows[i]
			if len(a.Counters) != len(b.Counters) {
				t.Fatalf("window %d: counter keys differ: %v vs %v", i, a.Counters, b.Counters)
			}
			for k, av := range a.Counters {
				if av != b.Counters[k] {
					t.Fatalf("window %d counter %s: %d != %d", i, k, av, b.Counters[k])
				}
			}
			for k, av := range a.Floats {
				if math.Abs(av-b.Floats[k]) > 1e-9*math.Max(1, math.Abs(av)) {
					t.Fatalf("window %d float %s: %g != %g beyond 1e-9", i, k, av, b.Floats[k])
				}
			}
			for k, av := range a.Gauges {
				if av != b.Gauges[k] {
					t.Fatalf("window %d gauge %s: %g != %g", i, k, av, b.Gauges[k])
				}
			}
			for k, av := range a.Sketches {
				bv := b.Sketches[k]
				if av.Count() != bv.Count() {
					t.Fatalf("window %d sketch %s: count %d != %d", i, k, av.Count(), bv.Count())
				}
				for _, q := range []float64{0.5, 0.99} {
					if av.Quantile(q) != bv.Quantile(q) {
						t.Fatalf("window %d sketch %s q%g differs", i, k, q)
					}
				}
			}
		}
	}
}

// TestJSONLRoundTripByteIdentical: dump -> read -> dump must be
// byte-identical, and repeat replays of the same events must produce
// byte-identical dumps (the repeat-run determinism contract).
func TestJSONLRoundTripByteIdentical(t *testing.T) {
	evs := genEvents(9, 3000)
	s1 := replay(t, evs, 7)
	s2 := replay(t, evs, 7)
	var b1, b2 bytes.Buffer
	if err := s1.WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("repeat replays produced different dumps")
	}
	back, err := ReadJSONL(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b3 bytes.Buffer
	if err := back.WriteJSONL(&b3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Fatalf("JSONL round trip not byte-identical:\nfirst: %d bytes\nagain: %d bytes", b1.Len(), b3.Len())
	}
}

func TestReadJSONLRejectsCorruption(t *testing.T) {
	evs := genEvents(4, 500)
	s := replay(t, evs, 5)
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	// Truncated dump: header window count no longer matches.
	lines := bytes.Split([]byte(full), []byte("\n"))
	if len(lines) > 3 {
		trunc := bytes.Join(lines[:len(lines)-2], []byte("\n"))
		if _, err := ReadJSONL(bytes.NewReader(trunc)); err == nil {
			t.Fatal("truncated dump must fail")
		}
	}
	if _, err := ReadJSONL(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty dump must fail")
	}
	if _, err := ReadJSONL(bytes.NewReader([]byte(`{"series":"bogus.v9","clock":"virtual_s","interval":1,"origin":0,"alpha":0.01,"windows":0}`))); err == nil {
		t.Fatal("wrong version must fail")
	}
}

// TestReadJSONLRejectsV1 pins the layout bump: a v1 dump, whose windows
// carried histogram deltas, fails on its version line rather than
// reading back as a series without them.
func TestReadJSONLRejectsV1(t *testing.T) {
	v1 := `{"series":"sdem.series.v1","clock":"ordinal","interval":1,"origin":0,"alpha":0.01,"windows":1}
{"w":0,"counters":{"req":1},"hists":{"lat":{"count":1,"sum":0.5,"buckets":[[3,1]]}}}
`
	_, err := ReadJSONL(strings.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), `dump version "sdem.series.v1"`) {
		t.Fatalf("v1 dump: err = %v, want a version error", err)
	}
}

func TestCollectorWindowing(t *testing.T) {
	rec := telemetry.New()
	col, err := NewCollector(rec, ClockVirtual, 10)
	if err != nil {
		t.Fatal(err)
	}
	col.Advance(0)
	rec.Count("jobs", 3)
	col.Advance(5) // still window 0
	rec.Count("jobs", 2)
	col.Advance(25) // crosses into window 2: window 0 captures, window 1 empty
	rec.Count("jobs", 1)
	s := col.Finish(29)
	if len(s.Windows) != 3 {
		t.Fatalf("got %d windows, want 3", len(s.Windows))
	}
	if got := s.Windows[0].Counters["jobs"]; got != 5 {
		t.Fatalf("window 0 jobs delta = %d, want 5", got)
	}
	if !s.Windows[1].Empty() {
		t.Fatalf("gap window 1 not empty: %+v", s.Windows[1])
	}
	if got := s.Windows[2].Counters["jobs"]; got != 1 {
		t.Fatalf("window 2 jobs delta = %d, want 1", got)
	}
	if s.WindowStart(2) != 20 {
		t.Fatalf("window 2 start = %g, want 20", s.WindowStart(2))
	}
	// Finished collectors ignore further traffic.
	col.Advance(100)
	col.Observe("late", 1)
	if again := col.Snapshot(); len(again.Windows) != 3 {
		t.Fatal("finished collector must stop capturing")
	}
}

func TestCollectorOrdinalTick(t *testing.T) {
	rec := telemetry.New()
	col, err := NewCollector(rec, ClockOrdinal, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rec.Count("req", 1)
		col.TickWith("lat", float64(i))
	}
	s := col.Snapshot()
	if len(s.Windows) != 2 {
		t.Fatalf("10 ticks at interval 4: got %d complete windows, want 2", len(s.Windows))
	}
	for i, w := range s.Windows {
		if got := w.Counters["req"]; got != 4 {
			t.Fatalf("window %d req delta = %d, want 4", i, got)
		}
		if got := w.Sketches["lat"].Count(); got != 4 {
			t.Fatalf("window %d lat observations = %d, want 4", i, got)
		}
	}
	fin := col.Finish(10)
	if len(fin.Windows) != 3 {
		t.Fatalf("finish must flush the partial window: got %d", len(fin.Windows))
	}
	if got := fin.Windows[2].Counters["req"]; got != 2 {
		t.Fatalf("partial window req delta = %d, want 2", got)
	}
}

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.Advance(1)
	c.Observe("x", 1)
	c.TickWith("x", 1)
	if c.Snapshot() != nil || c.Finish(2) != nil {
		t.Fatal("nil collector must return nil series")
	}
}

func TestNewCollectorValidation(t *testing.T) {
	if _, err := NewCollector(nil, ClockVirtual, 0); err == nil {
		t.Fatal("zero interval must fail")
	}
	if _, err := NewCollector(nil, "wall_s", 1); err == nil {
		t.Fatal("unknown clock must fail")
	}
}

// TestCollectorRetain runs a bounded and an unbounded ordinal collector
// side by side: the bounded snapshot must be the unbounded one's last
// windows, renumbered from 0 with the origin moved past the dropped
// ones, at every point of the run, and must round-trip through JSONL.
func TestCollectorRetain(t *testing.T) {
	rec := telemetry.New()
	all, err := NewCollector(rec, ClockOrdinal, 4)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := NewCollector(rec, ClockOrdinal, 4)
	if err != nil {
		t.Fatal(err)
	}
	kept.Retain(3)
	for i := 0; i < 41; i++ {
		rec.Count("req", int64(i))
		all.TickWith("lat", float64(i))
		kept.TickWith("lat", float64(i))
		full, got := all.Snapshot(), kept.Snapshot()
		skip := max(len(full.Windows)-3, 0)
		if len(got.Windows) != len(full.Windows)-skip {
			t.Fatalf("tick %d: %d windows kept of %d, want the last 3", i, len(got.Windows), len(full.Windows))
		}
		if want := full.WindowStart(int64(skip)); got.Origin != want { //lint:allow floatcmp: ordinal window starts are small integers
			t.Fatalf("tick %d: origin %v, want %v", i, got.Origin, want)
		}
		for j, w := range got.Windows {
			ref := full.Windows[skip+j]
			if w.Index != int64(j) || w.Counters["req"] != ref.Counters["req"] || w.Sketches["lat"].Count() != ref.Sketches["lat"].Count() {
				t.Fatalf("tick %d: kept window %d = %+v, want %+v renumbered", i, j, w, ref)
			}
		}
	}
	var buf bytes.Buffer
	if err := kept.Snapshot().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSONL(&buf); err != nil {
		t.Fatalf("bounded snapshot does not read back: %v", err)
	}
}
