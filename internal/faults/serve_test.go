package faults

import (
	"reflect"
	"testing"
)

// materialize lists the faults the plan injects over the first n request
// ordinals (1..n), in ordinal order.
func materialize(p ServePlan, n int64) []ServeFault {
	var out []ServeFault
	for id := int64(1); id <= n; id++ {
		if f, ok := p.At(id); ok {
			out = append(out, f)
		}
	}
	return out
}

func TestServePlanDeterministic(t *testing.T) {
	cfg := ServeConfig{Rate: 0.3, Kinds: []ServeKind{ServeLatency, ServeError, ServePanic}}
	a := materialize(NewServePlan(cfg, 42), 2000)
	b := materialize(NewServePlan(cfg, 42), 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different storms")
	}
	if len(a) == 0 {
		t.Fatalf("rate 0.3 over 2000 requests injected nothing")
	}
	c := materialize(NewServePlan(cfg, 43), 2000)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical storms")
	}
}

func TestServePlanRateBounds(t *testing.T) {
	if got := materialize(NewServePlan(ServeConfig{Rate: 0}, 1), 500); len(got) != 0 {
		t.Fatalf("rate 0 injected %d faults", len(got))
	}
	all := materialize(NewServePlan(ServeConfig{Rate: 1}, 1), 500)
	if len(all) != 500 {
		t.Fatalf("rate 1 injected %d of 500", len(all))
	}
	mid := materialize(NewServePlan(ServeConfig{Rate: 0.5}, 7), 2000)
	if len(mid) < 800 || len(mid) > 1200 {
		t.Fatalf("rate 0.5 injected %d of 2000 — badly biased derivation", len(mid))
	}
}

func TestServePlanDefaultsLatencyOnly(t *testing.T) {
	for _, f := range materialize(NewServePlan(ServeConfig{Rate: 1}, 3), 200) {
		if f.Kind != ServeLatency {
			t.Fatalf("default kinds injected %v", f.Kind)
		}
		if f.Delay <= 0 || f.Delay > 0.050 {
			t.Fatalf("latency delay %g outside (0, 50ms]", f.Delay)
		}
	}
}

func TestServePlanAtMatchesMaterialize(t *testing.T) {
	p := NewServePlan(ServeConfig{Rate: 0.4, Kinds: []ServeKind{ServeLatency, ServePanic}, MaxDelay: 0.01}, 11)
	byID := map[int64]ServeFault{}
	for _, f := range materialize(p, 300) {
		byID[f.Request] = f
	}
	for id := int64(1); id <= 300; id++ {
		f, ok := p.At(id)
		mf, want := byID[id]
		if ok != want || (ok && f != mf) {
			t.Fatalf("At(%d) = (%+v, %v) disagrees with materialize", id, f, ok)
		}
	}
}

func TestParseServeKinds(t *testing.T) {
	kinds, err := ParseServeKinds("latency, error,panic")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kinds, []ServeKind{ServeLatency, ServeError, ServePanic}) {
		t.Fatalf("parsed %v", kinds)
	}
	if _, err := ParseServeKinds("oops"); err == nil {
		t.Fatalf("unknown kind parsed")
	}
	if kinds, err := ParseServeKinds(""); err != nil || kinds != nil {
		t.Fatalf("empty spec: (%v, %v)", kinds, err)
	}
}
