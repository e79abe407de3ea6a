// Parity pins of the decision provenance: the summary walk and the
// on-read document against explainOracle (the eager builder every
// response once ran) over schedules from every producer, and the
// /v1/explain and /debug/trace/{id} bodies and solve-span notes of a
// fixed request sequence, byte-for-byte against a committed golden.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sdem/internal/baseline"
	"sdem/internal/core"
	"sdem/internal/faults"
	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/resilient"
	"sdem/internal/schedule"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the provenance golden")

// explainOracle is the eager provenance builder: it replays the per-gap
// and per-segment decisions of a finished schedule with fresh interval
// slices from its own merge and gap walk. newProvenance and explain must
// reproduce it exactly.
func explainOracle(sched string, s *schedule.Schedule, sys power.System) *Explanation {
	if s == nil {
		return nil
	}
	ex := &Explanation{
		Scheduler:        sched,
		CorePolicy:       s.CorePolicy.String(),
		MemoryPolicy:     s.MemoryPolicy.String(),
		CoreBreakEvenS:   sys.Core.BreakEven,
		MemoryBreakEvenS: sys.Memory.BreakEven,
		CriticalSpeed:    sys.Core.CriticalSpeed(0),
	}

	appendGap := func(component string, g schedule.Interval, pol schedule.SleepPolicy, alpha, xi float64) {
		d := pol.Decide(g.Len(), alpha, xi)
		ex.Summary.Gaps++
		decision := "idle"
		if d.Sleeps {
			decision = "sleep"
			ex.Summary.Sleeps++
			ex.Summary.SleepGainJ += d.NetGain
		} else {
			ex.Summary.Idles++
		}
		if len(ex.Gaps) >= explainGapCap {
			ex.Truncated = true
			return
		}
		ex.Gaps = append(ex.Gaps, GapDecision{
			Component:  component,
			Start:      g.Start,
			End:        g.End,
			LengthS:    g.Len(),
			BreakEvenS: xi,
			MarginS:    d.Margin,
			Decision:   decision,
			NetGainJ:   d.NetGain,
		})
	}

	var all []schedule.Segment
	for _, segs := range s.Cores {
		all = append(all, segs...)
	}
	for _, g := range oracleGaps(all, s.Start, s.End) {
		appendGap("memory", g, s.MemoryPolicy, sys.Memory.Static, sys.Memory.BreakEven)
		if g.Len() >= sys.Memory.BreakEven && s.MemoryPolicy.Decide(g.Len(), sys.Memory.Static, sys.Memory.BreakEven).Sleeps {
			ex.Summary.MemorySleep = true
		}
	}

	sUp := sys.Core.SpeedMax
	sCrit := ex.CriticalSpeed
	for k, segs := range s.Cores {
		for _, g := range oracleGaps(segs, s.Start, s.End) {
			appendGap(coreName(k), g, s.CorePolicy, sys.Core.Static, sys.Core.BreakEven)
		}
		for _, sg := range segs {
			ex.Summary.Segments++
			decision := "dvs"
			switch {
			case sUp > 0 && sg.Speed >= sUp*(1-speedTol):
				decision = "race"
				ex.Summary.Races++
			case sCrit > 0 && sg.Speed <= sCrit*(1+speedTol):
				decision = "crawl"
				ex.Summary.Crawls++
			default:
				ex.Summary.Dvs++
			}
			if len(ex.Speeds) >= explainGapCap {
				ex.Truncated = true
				continue
			}
			ex.Speeds = append(ex.Speeds, SpeedDecision{
				Core:          k,
				Task:          sg.TaskID,
				Start:         sg.Start,
				DurS:          sg.End - sg.Start,
				Speed:         sg.Speed,
				CriticalSpeed: sCrit,
				Decision:      decision,
			})
		}
	}
	return ex
}

// oracleGaps returns the idle intervals of [start, end] that segs leave
// uncovered once their busy intervals are sorted and merged across
// Tol-small gaps, leading and trailing gaps included: the oracle's own
// merge and gap walk, kept apart from the schedule package's.
func oracleGaps(segs []schedule.Segment, start, end float64) []schedule.Interval {
	busy := make([]schedule.Interval, 0, len(segs))
	for _, sg := range segs {
		busy = append(busy, schedule.Interval{Start: sg.Start, End: sg.End})
	}
	sort.Slice(busy, func(i, j int) bool { return busy[i].Start < busy[j].Start })
	var out []schedule.Interval
	cur := start
	for i := 0; i < len(busy); {
		// Merge the run of intervals that starts within Tol of the
		// running busy end into one interval [lo, hi].
		lo, hi := busy[i].Start, busy[i].End
		for i++; i < len(busy) && busy[i].Start <= hi+schedule.Tol; i++ {
			hi = math.Max(hi, busy[i].End)
		}
		if lo > cur+schedule.Tol {
			out = append(out, schedule.Interval{Start: cur, End: lo})
		}
		cur = math.Max(cur, hi)
	}
	if end > cur+schedule.Tol {
		out = append(out, schedule.Interval{Start: cur, End: end})
	}
	return out
}

// summaryDiff names the first field in which a and b differ, or returns
// "". SleepGainJ compares by bit pattern.
func summaryDiff(a, b ExplainSummary) string {
	switch {
	case a.Gaps != b.Gaps:
		return fmt.Sprintf("Gaps %d vs %d", a.Gaps, b.Gaps)
	case a.Sleeps != b.Sleeps:
		return fmt.Sprintf("Sleeps %d vs %d", a.Sleeps, b.Sleeps)
	case a.Idles != b.Idles:
		return fmt.Sprintf("Idles %d vs %d", a.Idles, b.Idles)
	case math.Float64bits(a.SleepGainJ) != math.Float64bits(b.SleepGainJ):
		return fmt.Sprintf("SleepGainJ %v vs %v", a.SleepGainJ, b.SleepGainJ)
	case a.Segments != b.Segments:
		return fmt.Sprintf("Segments %d vs %d", a.Segments, b.Segments)
	case a.Races != b.Races:
		return fmt.Sprintf("Races %d vs %d", a.Races, b.Races)
	case a.Crawls != b.Crawls:
		return fmt.Sprintf("Crawls %d vs %d", a.Crawls, b.Crawls)
	case a.Dvs != b.Dvs:
		return fmt.Sprintf("Dvs %d vs %d", a.Dvs, b.Dvs)
	case a.MemorySleep != b.MemorySleep:
		return fmt.Sprintf("MemorySleep %v vs %v", a.MemorySleep, b.MemorySleep)
	}
	return ""
}

// provenanceCase is one produced schedule, its provenance taken the
// moment the producer returned and the oracle's document of it.
type provenanceCase struct {
	name   string
	prov   *provenance
	oracle *Explanation
}

// provenanceSystems are the platforms the property runs on: the paper's
// default (core break-even 0, so every core gap sleeps), and one with
// core and memory break-evens long enough that some gaps idle.
func provenanceSystems() []power.System {
	slow := power.DefaultSystem()
	slow.Cores = 3
	slow.Core.BreakEven = power.Milliseconds(2)
	slow.Memory.BreakEven = power.Milliseconds(8)
	return []power.System{power.DefaultSystem(), slow}
}

// provenanceCases runs every schedule producer sdemd serves from — the
// five online policies, the common-release and agreeable offline solves,
// and resilient re-plans — and keeps each schedule's provenance and
// oracle document. Sizes reach past explainGapCap so truncation is
// exercised.
func provenanceCases(t *testing.T) []provenanceCase {
	t.Helper()
	var out []provenanceCase
	add := func(name, sched string, s *schedule.Schedule, sys power.System) {
		out = append(out, provenanceCase{name, newProvenance(sched, s, sys), explainOracle(sched, s, sys)})
	}
	for si, sys := range provenanceSystems() {
		for _, n := range []int{1, 7, 40, 300} {
			seed := int64(100*si + n)
			general := syntheticSet(t, n, seed, false)
			for _, sched := range []string{"sdem-on", "mbkp", "mbkps", "race", "critical"} {
				var (
					res *sim.Result
					err error
				)
				switch sched {
				case "sdem-on":
					res, err = online.Schedule(general, sys, online.Options{Cores: sys.Cores})
				case "mbkp":
					res, err = baseline.MBKP(general, sys, sys.Cores, nil)
				case "mbkps":
					res, err = baseline.MBKPS(general, sys, sys.Cores, nil)
				case "race":
					res, err = baseline.RaceToIdle(general, sys, sys.Cores, nil)
				case "critical":
					res, err = baseline.CriticalSpeed(general, sys, sys.Cores, nil)
				}
				if err != nil {
					t.Fatalf("%s n=%d: %v", sched, n, err)
				}
				add(fmt.Sprintf("%s/sys%d/n%d", sched, si, n), sched, res.Schedule, sys)
			}
			cr := syntheticSet(t, n, seed, true)
			for _, ts := range []task.Set{cr, agreeableSet(min(n, 40))} {
				sol, err := core.SolveCtx(nil, ts, sys, nil)
				if err != nil {
					t.Fatalf("solve %s n=%d: %v", ts.Classify(), len(ts), err)
				}
				add(fmt.Sprintf("auto-%s/sys%d/n%d", ts.Classify(), si, len(ts)), "auto", sol.Schedule, sys)
				fp := faults.Generate(faults.Config{Intensity: 0.8}, ts, sys, seed)
				// No speed boost, so threatened deadlines reach the re-plan step.
				res, err := resilient.Execute(sol.Schedule, ts, sys, fp, resilient.Policy{Replan: true, Race: true})
				if err != nil {
					t.Fatalf("execute %s n=%d: %v", ts.Classify(), len(ts), err)
				}
				replans := 0
				for _, r := range res.Recoveries {
					if r.Action == resilient.ActionReplan {
						replans++
					}
				}
				add(fmt.Sprintf("resilient-%s/sys%d/n%d/replans%d", ts.Classify(), si, len(ts), replans), "auto", res.Sim.Schedule, sys)
			}
		}
	}
	return out
}

// TestProvenanceMatchesOracle is the parity property: for schedules from
// every producer, the request-path summary walk equals the oracle's
// summary field by field (floats by bit pattern), and the on-read
// document deep-equals the oracle's, Truncated included. Every document
// is built only after all producers have run, so a kept schedule that
// aliased pooled solver scratch would show up as a mismatch.
func TestProvenanceMatchesOracle(t *testing.T) {
	cases := provenanceCases(t)
	truncated, replanned := 0, 0
	for _, c := range cases {
		if d := summaryDiff(c.prov.summary, c.oracle.Summary); d != "" {
			t.Errorf("%s: summary walk differs from the oracle: %s", c.name, d)
		}
		got := c.prov.explain()
		if !reflect.DeepEqual(got, c.oracle) {
			t.Errorf("%s: explain() differs from the oracle:\ngot  %+v\nwant %+v", c.name, got.Summary, c.oracle.Summary)
		}
		if !reflect.DeepEqual(c.prov.explain(), got) {
			t.Errorf("%s: a second explain() differs from the first", c.name)
		}
		if c.oracle.Truncated {
			truncated++
		}
		if strings.HasPrefix(c.name, "resilient") && !strings.HasSuffix(c.name, "replans0") {
			replanned++
		}
	}
	if truncated == 0 || replanned == 0 {
		t.Errorf("corpus misses a shape: %d truncated, %d re-planned documents", truncated, replanned)
	}
	if newProvenance("auto", nil, power.DefaultSystem()) != nil || (*provenance)(nil).explain() != nil {
		t.Error("nil schedule must give nil provenance and a nil document")
	}
}

// TestProvenanceSummaryAllocs pins the request-path walk as
// allocation-free once the auditor's scratch is warm, so newProvenance
// allocates only the provenance itself. (newProvenance is not counted
// directly: under the race detector sync.Pool drops items at random.)
func TestProvenanceSummaryAllocs(t *testing.T) {
	sys := power.DefaultSystem()
	res, err := online.Schedule(syntheticSet(t, 60, 7, false), sys, online.Options{Cores: sys.Cores})
	if err != nil {
		t.Fatal(err)
	}
	var a schedule.Auditor
	var sum ExplainSummary
	if n := testing.AllocsPerRun(20, func() { replay(&a, res.Schedule, sys, &sum, nil) }); n != 0 {
		t.Errorf("summary walk allocates %v times per run, want 0", n)
	}
}

// syntheticSet draws a §8.1.2 task set of n tasks the way sdembench and
// sdemload do; commonRelease moves every release to 0 with a window of
// 10 ms plus a tenth of the drawn one.
func syntheticSet(tb testing.TB, n int, seed int64, commonRelease bool) task.Set {
	tb.Helper()
	ts, err := workload.Synthetic(workload.SyntheticConfig{N: n}, seed)
	if err != nil {
		tb.Fatal(err)
	}
	if commonRelease {
		for i := range ts {
			ts[i].Deadline = power.Milliseconds(10) + ts[i].Window()/10
			ts[i].Release = 0
		}
	}
	return ts
}

// provenanceRequests is the golden's request sequence: explain misses and
// hits on the offline and online paths, compute requests whose traces
// carry provenance, an explanation past the 256-entry detail cap, two
// /v1/execute plans, and a failed solve that has no provenance.
func provenanceRequests(tb testing.TB) []struct {
	path string
	body TaskRequest
} {
	cr := syntheticSet(tb, 100, 1, true)
	online := syntheticSet(tb, 60, 2, false)
	return []struct {
		path string
		body TaskRequest
	}{
		{"/v1/solve", TaskRequest{Tasks: cr}},
		{"/v1/explain", TaskRequest{Tasks: cr}},
		{"/v1/explain", TaskRequest{Tasks: online, Scheduler: "sdem-on"}},
		{"/v1/simulate", TaskRequest{Tasks: online}},
		{"/v1/explain", TaskRequest{Tasks: syntheticSet(tb, 300, 3, false), Scheduler: "sdem-on"}},
		{"/v1/explain", TaskRequest{Tasks: generalSet(), Scheduler: "mbkp"}},
		{"/v1/explain", TaskRequest{Tasks: generalSet(), Scheduler: "critical"}},
		{"/v1/explain", TaskRequest{Tasks: agreeableSet(6)}},
		{"/v1/execute", TaskRequest{Tasks: syntheticSet(tb, 20, 4, true), Faults: &FaultSpec{Seed: 3, Intensity: 0.5}}},
		{"/v1/execute", TaskRequest{Tasks: generalSet(), Faults: &FaultSpec{Seed: 5, Intensity: 0.8}}},
		{"/v1/solve", TaskRequest{Tasks: generalSet()}},
	}
}

// goldenBodyMax is the largest body the golden holds verbatim; a larger
// one is pinned by its length and SHA-256.
const goldenBodyMax = 16 << 10

// writeBody appends one response body to the golden: verbatim when small,
// as its length and digest otherwise.
func writeBody(b *bytes.Buffer, body []byte) {
	if len(body) <= goldenBodyMax {
		b.Write(body)
		return
	}
	fmt.Fprintf(b, "%d bytes, sha256 %x\n", len(body), sha256.Sum256(body))
}

// spanNotes renders a wall trace's span names, parents and notes — the
// timing-free part of the tree — one span per line.
func spanNotes(t *testing.T, body []byte) string {
	t.Helper()
	var doc debugDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad trace doc: %v", err)
	}
	if doc.WallTrace == nil {
		t.Fatalf("traced request %s has no wall trace", doc.Request)
	}
	var b strings.Builder
	for _, sp := range doc.WallTrace.Spans {
		keys := make([]string, 0, len(sp.Notes))
		for k := range sp.Notes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "%s parent=%d", sp.Name, sp.Parent)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, sp.Notes[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestProvenanceGolden pins what provenance readers see. An untraced
// server answers the request sequence and then every request's
// /debug/trace document, so each body is deterministic and compared
// whole (large ones by digest); a traced server replays the sequence and
// contributes the span notes of every request's tree.
func TestProvenanceGolden(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	untraced := New(Config{TraceSample: -1, Logger: quiet})
	traced := New(Config{Logger: quiet})
	reqs := provenanceRequests(t)
	var got bytes.Buffer
	for i, rq := range reqs {
		w := post(t, untraced, rq.path, rq.body)
		fmt.Fprintf(&got, "=== %d POST %s: %d\n", i+1, rq.path, w.Code)
		if rq.path == "/v1/explain" {
			writeBody(&got, w.Body.Bytes())
		}
		post(t, traced, rq.path, rq.body)
	}
	for i := range reqs {
		id := fmt.Sprint(i + 1)
		w := get(t, untraced, "/debug/trace/"+id)
		if w.Code != http.StatusOK {
			t.Fatalf("trace %s: %d", id, w.Code)
		}
		fmt.Fprintf(&got, "=== GET /debug/trace/%s\n", id)
		writeBody(&got, w.Body.Bytes())
		fmt.Fprintf(&got, "=== span notes of request %s\n", id)
		got.WriteString(spanNotes(t, get(t, traced, "/debug/trace/"+id).Body.Bytes()))
	}

	path := filepath.Join("testdata", "provenance.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("provenance bodies differ from %s at line %d (run with -update to rewrite):\ngot:  %.300s\nwant: %.300s", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("provenance bodies differ from %s in length: %d vs %d lines", path, len(g), len(w))
	}
}
