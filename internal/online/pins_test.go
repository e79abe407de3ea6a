package online_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sdem/internal/baseline"
	"sdem/internal/faults"
	"sdem/internal/online"
	"sdem/internal/resilient"
	"sdem/internal/schedule"
	"sdem/internal/sim"
)

// pin is the bit-level fingerprint of one run: the audited energy and
// every Breakdown field as raw bits, the miss list, FNV-1a hashes of the
// miss details and of the normalized segments, the response metrics, and
// (for resilient replays) a hash of the classification and recovery log.
type pin struct {
	name      string
	err       string
	energy    uint64
	breakdown [10]uint64
	misses    []int
	details   uint64
	metrics   [4]uint64
	segs      uint64
	extra     uint64
}

// fnv folds 64-bit words into an FNV-1a hash.
type fnv uint64

func newFNV() fnv { return 14695981039346656037 }

func (h *fnv) word(x uint64) {
	for i := 0; i < 8; i++ {
		*h ^= fnv(x & 0xff)
		*h *= 1099511628211
		x >>= 8
	}
}

func (h *fnv) num(x float64) { h.word(math.Float64bits(x)) }

func (h *fnv) str(s string) {
	h.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.word(uint64(s[i]))
	}
}

func (h *fnv) missList(ms []schedule.Miss) {
	h.word(uint64(len(ms)))
	for _, m := range ms {
		h.word(uint64(m.TaskID))
		h.num(m.Deadline)
		h.num(m.CompletedAt)
		h.num(m.Lateness)
		h.num(m.Remaining)
		h.word(uint64(m.Class))
	}
}

func pinOf(name string, r *sim.Result, err error) pin {
	p := pin{name: name}
	if err != nil {
		p.err = err.Error()
		return p
	}
	b := r.Breakdown
	p.energy = math.Float64bits(r.Energy)
	p.breakdown = [10]uint64{
		math.Float64bits(b.CoreDynamic), math.Float64bits(b.CoreStatic),
		math.Float64bits(b.CoreTransition), math.Float64bits(b.CoreSwitch),
		math.Float64bits(b.MemoryStatic), math.Float64bits(b.MemoryTransition),
		math.Float64bits(b.MemorySleep),
		uint64(b.CoreSleeps), uint64(b.MemorySleeps), uint64(b.SpeedSwitches),
	}
	p.misses = append([]int{}, r.Misses...)
	d := newFNV()
	d.missList(r.MissDetails)
	p.details = uint64(d)
	m := r.Metrics
	p.metrics = [4]uint64{
		math.Float64bits(m.MeanResponse), math.Float64bits(m.MaxResponse),
		math.Float64bits(m.MeanLaxity), uint64(m.Completed),
	}
	s := r.Schedule
	h := newFNV()
	h.word(uint64(s.NumCores))
	h.num(s.Start)
	h.num(s.End)
	h.word(uint64(s.CorePolicy))
	h.word(uint64(s.MemoryPolicy))
	for c, segs := range s.Cores {
		h.word(uint64(c))
		h.word(uint64(len(segs)))
		for _, sg := range segs {
			h.word(uint64(sg.TaskID))
			h.num(sg.Start)
			h.num(sg.End)
			h.num(sg.Speed)
		}
	}
	p.segs = uint64(h)
	return p
}

func resilientPin(name string, r *resilient.Result, err error) pin {
	if err != nil {
		return pinOf(name, nil, err)
	}
	p := pinOf(name, r.Sim, nil)
	h := newFNV()
	h.num(r.Energy)
	h.num(r.SpuriousWakeEnergy)
	h.num(r.WakeStallEnergy)
	h.missList(r.PlannedMisses)
	h.missList(r.FaultMisses)
	h.missList(r.Averted)
	h.word(uint64(len(r.Recoveries)))
	for _, rc := range r.Recoveries {
		h.num(rc.Time)
		h.word(uint64(rc.TaskID))
		h.word(uint64(rc.Action))
		h.str(rc.Reason)
		h.num(rc.EnergyDelta)
		if rc.Succeeded {
			h.word(1)
		} else {
			h.word(0)
		}
	}
	p.extra = uint64(h)
	return p
}

// pinIntensities are the fault intensities the resilient replays run at
// (0 is the empty plan).
var pinIntensities = []float64{0, 0.25, 0.5, 1}

// computePins runs every pinned case: online.Schedule over the
// equivalence grid, the four baselines on the same sets, and resilient
// replays of each online schedule under the empty plan and generated
// fault plans.
func computePins(t *testing.T) []pin {
	t.Helper()
	var out []pin
	type base struct {
		name string
		run  func(c online.Workload) (*sim.Result, error)
	}
	bases := []base{
		{"mbkp", func(c online.Workload) (*sim.Result, error) { return baseline.MBKP(c.Tasks, c.Sys, c.Opts.Cores) }},
		{"mbkps", func(c online.Workload) (*sim.Result, error) { return baseline.MBKPS(c.Tasks, c.Sys, c.Opts.Cores) }},
		{"race", func(c online.Workload) (*sim.Result, error) { return baseline.RaceToIdle(c.Tasks, c.Sys, c.Opts.Cores) }},
		{"critical", func(c online.Workload) (*sim.Result, error) {
			return baseline.CriticalSpeed(c.Tasks, c.Sys, c.Opts.Cores)
		}},
	}
	for i, c := range online.EquivalenceWorkloads(t) {
		onl, err := online.Schedule(c.Tasks, c.Sys, c.Opts)
		out = append(out, pinOf("online/"+c.Name, onl, err))
		for _, b := range bases {
			res, err := b.run(c)
			out = append(out, pinOf(b.name+"/"+c.Name, res, err))
		}
		if err != nil {
			continue
		}
		for _, in := range pinIntensities {
			plan := faults.Generate(faults.Config{Intensity: in}, c.Tasks, c.Sys, int64(i+1))
			res, err := resilient.Execute(onl.Schedule, c.Tasks, c.Sys, plan, resilient.DefaultPolicy())
			out = append(out, resilientPin(fmt.Sprintf("resilient/%g/%s", in, c.Name), res, err))
			if in >= 0.5 {
				// Without the boost step every detection escalates to the
				// re-plan, pinning the planning path resilient shares.
				res, err = resilient.Execute(onl.Schedule, c.Tasks, c.Sys, plan, resilient.Policy{Replan: true, Race: true})
				out = append(out, resilientPin(fmt.Sprintf("resilient-replan/%g/%s", in, c.Name), res, err))
			}
		}
	}
	return out
}

// goLiteral renders a pin as a table row.
func (p pin) goLiteral() string {
	var b strings.Builder
	fmt.Fprintf(&b, "{%q, %q, %#x, [10]uint64{", p.name, p.err, p.energy)
	for i, w := range p.breakdown {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%#x", w)
	}
	b.WriteString("}, ")
	if p.misses == nil {
		b.WriteString("nil")
	} else {
		fmt.Fprintf(&b, "%#v", p.misses)
	}
	fmt.Fprintf(&b, ", %#x, [4]uint64{%#x, %#x, %#x, %#x}, %#x, %#x},",
		p.details, p.metrics[0], p.metrics[1], p.metrics[2], p.metrics[3], p.segs, p.extra)
	return b.String()
}

// TestParentPins replays every pinned case and requires the exact bits
// recorded before the batch executor became a finite stream: energy,
// breakdown, misses, miss details, metrics, segments and (for resilient
// replays) classification and recovery log. Any diff means the executor
// swap changed an observable output.
func TestParentPins(t *testing.T) {
	got := computePins(t)
	if len(got) != len(parentPins) {
		t.Fatalf("computed %d pins, table has %d", len(got), len(parentPins))
	}
	bad := 0
	for i, g := range got {
		w := parentPins[i]
		if g.goLiteral() != w.goLiteral() {
			bad++
			if bad <= 10 {
				t.Errorf("pin %d differs:\n got %s\nwant %s", i, g.goLiteral(), w.goLiteral())
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d pins differ", bad, len(got))
	}
}
