package workload

import "testing"

// TestSporadicStreamMatchesSynthetic pins the stream to the batch
// generator: same seed, same draws, so the collected prefix must equal
// the Synthetic set field for field (minus names, which the stream
// leaves empty to keep long runs garbage-free).
func TestSporadicStreamMatchesSynthetic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := SyntheticConfig{N: 50}
		want, err := Synthetic(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		src, err := SporadicStream(cfg, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := Collect(src, len(want))
		if len(got) != len(want) {
			t.Fatalf("seed %d: collected %d tasks, want %d", seed, len(got), len(want))
		}
		for i := range want {
			w := want[i]
			w.Name = ""
			if got[i] != w {
				t.Fatalf("seed %d task %d: stream %+v, batch %+v", seed, i, got[i], w)
			}
		}
	}
}

// TestSporadicStreamLimit checks the instance bound and exhaustion.
func TestSporadicStreamLimit(t *testing.T) {
	src, err := SporadicStream(SyntheticConfig{}, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := Collect(src, 100); len(got) != 7 {
		t.Errorf("limited stream emitted %d tasks, want 7", len(got))
	}
	if _, ok := src.Next(); ok {
		t.Error("exhausted stream still emitting")
	}
}
