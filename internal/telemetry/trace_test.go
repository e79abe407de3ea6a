package telemetry

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// TestArgFormatPins pins the typed arguments' text at the edges of their
// types against the formatting the arguments once did when recorded:
// strconv.FormatInt for Int and ftoa for Num.
func TestArgFormatPins(t *testing.T) {
	for _, v := range []int64{0, 1, -1, math.MaxInt64, -math.MaxInt64, math.MinInt64} {
		if got, want := Int("k", v).text(), strconv.FormatInt(v, 10); got != want {
			t.Errorf("Int(%d) = %q, want %q", v, got, want)
		}
	}
	pins := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{math.Copysign(0, -1), "-0"},
		{5e-324, "5e-324"},
		{-5e-324, "-5e-324"},
		{2.2250738585072009e-308, "2.225073858507201e-308"}, // largest subnormal
		{math.MaxFloat64, "1.7976931348623157e+308"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{math.NaN(), "NaN"},
		{0.1, "0.1"},
		{1e21, "1e+21"},
	}
	for _, p := range pins {
		got := Num("k", p.v).text()
		if got != p.want || got != ftoa(p.v) {
			t.Errorf("Num(%v) = %q, want %q (ftoa %q)", p.v, got, p.want, ftoa(p.v))
		}
	}
	if got := Str("k", `a"b`).text(); got != `a"b` {
		t.Errorf("Str = %q", got)
	}
}

// TestDeferSplicesAtPosition checks a deferred source's events land
// exactly where Defer was called: among events with equal sort keys the
// recording order decides, so the source's event sits between the two
// recorded around it, also after a Merge into a parent holding events.
func TestDeferSplicesAtPosition(t *testing.T) {
	c := New().Child(2)
	c.Instant("x", "c", 1, 0, Str("at", "before"))
	c.Defer(func(r *Recorder) { r.Instant("x", "c", 1, 0, Str("at", "source")) })
	c.Instant("x", "c", 1, 0, Str("at", "after"))
	p := New().Child(2)
	p.Instant("x", "c", 1, 0, Str("at", "parent"))
	p.Merge(c)
	var order []string
	for _, e := range p.Events() {
		order = append(order, e.Args[0].text())
	}
	if got, want := order, []string{"parent", "before", "source", "after"}; !slices.Equal(got, want) {
		t.Errorf("event order = %v, want %v", got, want)
	}
	// MergeMetrics leaves the events and the sources behind.
	q := New()
	q.MergeMetrics(c)
	if ev := q.Events(); len(ev) != 0 {
		t.Errorf("MergeMetrics carried events: %+v", ev)
	}
	var nilRec *Recorder
	nilRec.Defer(func(*Recorder) { t.Error("nil recorder ran a source") })
}

// TestDeferConcurrentReads reads a recorder's trace from several
// goroutines while another keeps recording events and deferred sources,
// as concurrent /debug/trace fetches of a live request could: every read
// must be a well-formed trace, and the race detector must stay quiet.
func TestDeferConcurrentReads(t *testing.T) {
	r := New().Child(1)
	source := func(d *Recorder) { d.Span("s", "c", 0, 1, 0, Num("v", 0.5), Int("n", 3)) }
	r.Defer(source)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r.Instant("i", "c", float64(i), 0, Int("i", int64(i)))
			r.Defer(source)
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var b bytes.Buffer
				if err := r.WriteChromeTrace(&b); err != nil {
					t.Error(err)
					return
				}
				if !bytes.HasSuffix(b.Bytes(), []byte("\n]\n")) {
					t.Errorf("torn trace:\n%s", b.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(r.Events()); got != 401 {
		t.Errorf("%d events after the writer finished, want 401", got)
	}
}

// traceProgram is a fuzzed sequence of recorder operations, run twice by
// FuzzChromeTrace: once as written (typed arguments, deferred sources)
// and once on the eager oracle, in which every argument is recorded as a
// pre-formatted Str and every Defer runs its source on the spot.
type traceProgram struct {
	data []byte
}

func (p *traceProgram) byte() byte {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return b
}

func (p *traceProgram) uint64() uint64 {
	var buf [8]byte
	n := copy(buf[:], p.data)
	p.data = p.data[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// traceOp is one parsed operation: an event, or a block of operations
// run deferred or on a child recorder that is then merged.
type traceOp struct {
	kind   byte // 'X' span, 'i' instant, 'D' defer, 'M' child merge, 'm' metrics-only merge
	name   string
	ts     float64
	end    float64
	tid    int
	pid    int
	args   []Arg
	oracle []Arg
	body   []traceOp
}

// fuzzTimes are few and repeat, so events tie on (PID, TS, TID, Name)
// and the recording order, which Defer must keep, decides.
var fuzzTimes = []float64{0, 1, 1, 1.5, 2, 1e-7}

// fuzzNums are the Num edge values; other Num values come from raw bits.
var fuzzNums = []float64{0, math.Copysign(0, -1), 5e-324, math.Inf(1), math.Inf(-1), math.NaN(), 0.1, 1e21}

// parse reads at most budget operations, nesting blocks up to depth.
func (p *traceProgram) parse(budget, depth int) []traceOp {
	var ops []traceOp
	for len(p.data) > 0 && len(ops) < budget {
		b := p.byte()
		op := traceOp{
			name: []string{"a", "b", "task 1"}[int(b>>4)%3],
			ts:   fuzzTimes[int(b>>2)%len(fuzzTimes)],
			tid:  int(b>>6) % 3,
		}
		switch k := b % 5; {
		case k == 0 || depth == 0 && k >= 2:
			op.kind = 'X'
			op.end = op.ts + fuzzTimes[int(p.byte())%len(fuzzTimes)] - 0.5
		case k == 1:
			op.kind = 'i'
		case k == 2:
			op.kind = 'D'
			op.body = p.parse(int(p.byte()%6), depth-1)
		case k == 3:
			op.kind = 'M'
			op.pid = int(p.byte() % 3)
			op.body = p.parse(int(p.byte()%6), depth-1)
		default:
			op.kind = 'm'
			op.pid = int(p.byte() % 3)
			op.body = p.parse(int(p.byte()%6), depth-1)
		}
		if op.kind == 'X' || op.kind == 'i' {
			for n := int(p.byte() % 4); n > 0; n-- {
				a := p.byte()
				key := []string{"task", "speed", "we\"ird"}[int(a>>2)%3]
				switch a % 3 {
				case 0:
					v := math.Float64frombits(p.uint64())
					if a&0x80 != 0 {
						v = fuzzNums[int(a>>4)%len(fuzzNums)]
					}
					op.args = append(op.args, Num(key, v))
					op.oracle = append(op.oracle, Str(key, strconv.FormatFloat(v, 'g', -1, 64)))
				case 1:
					v := int64(p.uint64())
					op.args = append(op.args, Int(key, v))
					op.oracle = append(op.oracle, Str(key, strconv.FormatInt(v, 10)))
				default:
					v := string(p.data[:min(len(p.data), int(a>>5))])
					p.data = p.data[len(v):]
					op.args = append(op.args, Str(key, v))
					op.oracle = append(op.oracle, Str(key, v))
				}
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// run records ops into r; eager selects the oracle's recording.
func run(r *Recorder, ops []traceOp, eager bool) {
	for _, op := range ops {
		args := op.args
		if eager {
			args = op.oracle
		}
		switch op.kind {
		case 'X':
			r.Span(op.name, "f", op.ts, op.end, op.tid, args...)
		case 'i':
			r.Instant(op.name, "f", op.ts, op.tid, args...)
		case 'D':
			body := op.body
			if eager {
				run(r, body, true)
			} else {
				r.Defer(func(d *Recorder) { run(d, body, false) })
			}
		case 'M', 'm':
			c := r.Child(op.pid)
			run(c, op.body, eager)
			if op.kind == 'M' {
				r.Merge(c)
			} else {
				r.MergeMetrics(c)
			}
		}
	}
}

// FuzzChromeTrace checks that typed arguments and deferred sources are
// invisible in the written trace: any sequence of spans, instants, Num,
// Int and Str arguments, Defer blocks and child merges writes the same
// Chrome trace bytes as the eager oracle, on the first read and on a
// second one.
func FuzzChromeTrace(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0x80, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{2, 3, 1, 0, 5, 17, 3, 2, 0, 1, 1})
	f.Add([]byte{3, 1, 4, 2, 2, 1, 0, 0x41, 2, 0x21, 1, 0xd0, 0x20, 'q'})
	f.Add([]byte{0x11, 0x12, 0x02, 4, 0x05, 0x06, 0x51, 4, 2, 3, 0x44, 0x84, 1, 0x52})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := traceProgram{data: data}
		ops := p.parse(64, 3)
		lazy, eager := New().Child(1), New().Child(1)
		run(lazy, ops, false)
		run(eager, ops, true)
		var got, want, again bytes.Buffer
		if err := lazy.WriteChromeTrace(&got); err != nil {
			t.Fatal(err)
		}
		if err := eager.WriteChromeTrace(&want); err != nil {
			t.Fatal(err)
		}
		if err := lazy.WriteChromeTrace(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("deferred trace differs from the eager oracle:\n%s\nvs\n%s", got.String(), want.String())
		}
		if !bytes.Equal(again.Bytes(), got.Bytes()) {
			t.Fatalf("second read differs:\n%s\nvs\n%s", again.String(), got.String())
		}
	})
}
