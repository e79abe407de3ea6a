package schedule

import (
	"math"
	"math/rand"
	"testing"

	"sdem/internal/power"
)

// feedBatches replays a schedule into a meter the way the streaming
// engine emits it: segments grouped into planning batches, cross-core
// order scrambled inside each batch, Seal at every batch boundary.
func feedBatches(t *testing.T, m *Meter, batches []batch) {
	t.Helper()
	for i, b := range batches {
		for _, cs := range b {
			if err := m.Add(cs.core, cs.seg); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		next := math.Inf(1)
		if i+1 < len(batches) {
			next = batches[i+1].earliest()
		}
		m.Seal(next)
	}
}

type coreSeg struct {
	core int
	seg  Segment
}

type batch []coreSeg

func (b batch) earliest() float64 {
	e := math.Inf(1)
	for _, cs := range b {
		if cs.seg.Start < e {
			e = cs.seg.Start
		}
	}
	return e
}

// randomBatches draws a random multicore execution trace: batches of
// segments separated by random gaps (some short of the break-even, some
// past it), random speeds from a small palette so DVS switches both fire
// and repeat, and per-core starts that never go backwards.
func randomBatches(r *rand.Rand, cores, n int) []batch {
	speeds := []float64{4e8, 7e8, 1e9}
	cur := make([]float64, cores)
	now := 0.0
	var out []batch
	for len(out) < n {
		// Gap to the batch: mix sub-Tol jitter, short idles, and long
		// sleeps so every gapCost branch is exercised.
		switch r.Intn(3) {
		case 0:
			now += Tol / 3
		case 1:
			now += 0.0005 + r.Float64()*0.002
		default:
			now += 0.05 + r.Float64()*0.2
		}
		var b batch
		for _, c := range r.Perm(cores)[:1+r.Intn(cores)] {
			start := math.Max(now, cur[c])
			d := 0.001 + r.Float64()*0.01
			sg := Segment{TaskID: len(out), Start: start, End: start + d, Speed: speeds[r.Intn(len(speeds))]}
			cur[c] = sg.End
			b = append(b, coreSeg{c, sg})
		}
		out = append(out, b)
		now = b.earliest()
	}
	return out
}

func scheduleOf(batches []batch, cores int, start, end float64, corePol, memPol SleepPolicy) *Schedule {
	s := New(cores, start, end)
	s.CorePolicy, s.MemoryPolicy = corePol, memPol
	for _, b := range batches {
		for _, cs := range b {
			s.Add(cs.core, cs.seg)
		}
	}
	return s
}

func compareBreakdowns(t *testing.T, got, want Breakdown) {
	t.Helper()
	if got.CoreSleeps != want.CoreSleeps || got.MemorySleeps != want.MemorySleeps || got.SpeedSwitches != want.SpeedSwitches {
		t.Errorf("count mismatch: meter %+v, audit %+v", got, want)
	}
	fields := []struct {
		name      string
		got, want float64
	}{
		{"CoreDynamic", got.CoreDynamic, want.CoreDynamic},
		{"CoreStatic", got.CoreStatic, want.CoreStatic},
		{"CoreTransition", got.CoreTransition, want.CoreTransition},
		{"CoreSwitch", got.CoreSwitch, want.CoreSwitch},
		{"MemoryStatic", got.MemoryStatic, want.MemoryStatic},
		{"MemoryTransition", got.MemoryTransition, want.MemoryTransition},
		{"MemorySleep", got.MemorySleep, want.MemorySleep},
		{"Total", got.Total(), want.Total()},
	}
	for _, f := range fields {
		if rel := math.Abs(f.got-f.want) / math.Max(math.Abs(f.want), 1e-12); rel > 1e-9 {
			t.Errorf("%s: meter %g vs audit %g (rel %g)", f.name, f.got, f.want, rel)
		}
	}
}

// meterPolicies are the (core, memory) sleep-policy pairs the meter is
// checked under.
var meterPolicies = []struct {
	name      string
	core, mem SleepPolicy
}{
	{"breakeven", SleepBreakEven, SleepBreakEven},
	{"never", SleepNever, SleepNever},
	{"always", SleepAlways, SleepAlways},
	{"mixed", SleepBreakEven, SleepNever},
}

// lastEnd is the latest segment end of a trace.
func lastEnd(batches []batch) float64 {
	end := 0.0
	for _, b := range batches {
		for _, cs := range b {
			end = math.Max(end, cs.seg.End)
		}
	}
	return end
}

// TestMeterMatchesAudit pins the incremental meter to the batch audit on
// randomized traces: same charging decisions, totals within float
// summation-order slack.
func TestMeterMatchesAudit(t *testing.T) {
	sys := power.DefaultSystem()
	for _, pol := range meterPolicies {
		t.Run(pol.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				r := rand.New(rand.NewSource(seed))
				cores := 1 + r.Intn(4)
				batches := randomBatches(r, cores, 30)
				end := lastEnd(batches) + r.Float64()*0.3 // trailing idle past the last segment

				m := NewMeter(cores, 0, sys, pol.core, pol.mem)
				feedBatches(t, m, batches)
				got := m.Finish(end)
				want := Audit(scheduleOf(batches, cores, 0, end, pol.core, pol.mem), sys)
				compareBreakdowns(t, got, want)
			}
		})
	}
}

// FuzzMeter extends TestMeterMatchesAudit past its eight seeds: the
// fuzz input seeds randomBatches (1–4 cores, 1–64 batches) and sets the
// trailing idle (up to 0.3 s), and under every policy pair the meter
// must match the audit within the same 1e-9 relative bound.
func FuzzMeter(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(29), uint16(30000))
	f.Add(int64(7), uint8(0), uint8(0), uint16(0))
	f.Add(int64(-3), uint8(255), uint8(63), uint16(65535))
	sys := power.DefaultSystem()
	f.Fuzz(func(t *testing.T, seed int64, coresRaw, nRaw uint8, tailRaw uint16) {
		r := rand.New(rand.NewSource(seed))
		cores := 1 + int(coresRaw%4)
		batches := randomBatches(r, cores, 1+int(nRaw%64))
		end := lastEnd(batches) + 0.3*float64(tailRaw)/math.MaxUint16
		for _, pol := range meterPolicies {
			m := NewMeter(cores, 0, sys, pol.core, pol.mem)
			feedBatches(t, m, batches)
			got := m.Finish(end)
			want := Audit(scheduleOf(batches, cores, 0, end, pol.core, pol.mem), sys)
			compareBreakdowns(t, got, want)
		}
	})
}

// TestMeterNeverUsedComponents covers the horizon-only charges: a core
// that never runs and a memory that never wakes must cost exactly what
// the audit charges for them.
func TestMeterNeverUsedComponents(t *testing.T) {
	sys := power.DefaultSystem()
	// One busy core out of three: cores 1 and 2 idle the whole horizon.
	batches := []batch{{{0, Segment{TaskID: 1, Start: 0.01, End: 0.02, Speed: 1e9}}}}
	for _, pol := range []SleepPolicy{SleepBreakEven, SleepNever} {
		m := NewMeter(3, 0, sys, pol, pol)
		feedBatches(t, m, batches)
		got := m.Finish(1)
		want := Audit(scheduleOf(batches, 3, 0, 1, pol, pol), sys)
		compareBreakdowns(t, got, want)
	}

	// Empty meter: memory never woke, no core ever ran.
	for _, pol := range []SleepPolicy{SleepBreakEven, SleepNever} {
		m := NewMeter(2, 0, sys, pol, pol)
		got := m.Finish(0.5)
		want := Audit(scheduleOf(nil, 2, 0, 0.5, pol, pol), sys)
		compareBreakdowns(t, got, want)
	}
}

// TestMeterRejectsBadSegments pins the contract violations the engine
// must never commit.
func TestMeterRejectsBadSegments(t *testing.T) {
	sys := power.DefaultSystem()
	m := NewMeter(1, 0, sys, SleepBreakEven, SleepBreakEven)
	if err := m.Add(1, Segment{Start: 0, End: 1, Speed: 1e9}); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := m.Add(0, Segment{Start: 1, End: 1, Speed: 1e9}); err == nil {
		t.Error("zero-length segment accepted")
	}
	if err := m.Add(0, Segment{Start: 0.5, End: 0.6, Speed: 1e9}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(0, Segment{Start: 0.1, End: 0.2, Speed: 1e9}); err == nil {
		t.Error("backwards segment accepted")
	}
}
