package stats

import "testing"

func TestDeriveSeedDeterministic(t *testing.T) {
	a := DeriveSeed(1, 2, FloatDim(0.4), 7)
	b := DeriveSeed(1, 2, FloatDim(0.4), 7)
	if a != b {
		t.Fatalf("DeriveSeed is not a pure function: %d vs %d", a, b)
	}
}

func TestDeriveSeedSensitivity(t *testing.T) {
	base := DeriveSeed(1, 2, 3)
	for name, other := range map[string]int64{
		"base":       DeriveSeed(2, 2, 3),
		"dim value":  DeriveSeed(1, 2, 4),
		"dim order":  DeriveSeed(1, 3, 2),
		"arity":      DeriveSeed(1, 2),
		"extra zero": DeriveSeed(1, 2, 3, 0),
	} {
		if other == base {
			t.Errorf("changing %s did not change the derived seed", name)
		}
	}
}

func TestDeriveSeedNoCollisionsOnDenseGrid(t *testing.T) {
	// A campaign-sized grid: 8 domains × 16 × 16 float coordinates × 10
	// cases. Any collision here would correlate two "independent" runs.
	seen := make(map[int64]bool, 8*16*16*10)
	for dom := uint64(0); dom < 8; dom++ {
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				for s := uint64(0); s < 10; s++ {
					k := DeriveSeed(1, dom, FloatDim(float64(i)*0.1), FloatDim(float64(j)*0.015), s)
					if seen[k] {
						t.Fatalf("collision at dom=%d i=%d j=%d s=%d", dom, i, j, s)
					}
					seen[k] = true
				}
			}
		}
	}
}

func TestDeriveSeedNeverZero(t *testing.T) {
	// Zero seeds would read as "use the default" sentinels downstream.
	for i := uint64(0); i < 100000; i++ {
		if DeriveSeed(0, i) == 0 {
			t.Fatalf("DeriveSeed(0, %d) = 0", i)
		}
	}
	if DeriveSeed(0) == 0 {
		t.Fatal("DeriveSeed(0) = 0")
	}
}

func TestFloatDimLossless(t *testing.T) {
	// The old int64(x*1e6) encoding folded these two ξ_m values together.
	a, b := 0.0150000001, 0.0150000002
	if FloatDim(a) == FloatDim(b) {
		t.Fatal("FloatDim truncates distinct coordinates")
	}
	if FloatDim(0.4) != FloatDim(0.4) {
		t.Fatal("FloatDim is not stable")
	}
}

func TestUnitRange(t *testing.T) {
	if Unit(0) != 0 {
		t.Fatalf("Unit(0) = %v, want 0", Unit(0))
	}
	if u := Unit(^uint64(0)); u >= 1 || u < 1-1.0/(1<<52) {
		t.Fatalf("Unit(max) = %v, want the largest float64 below 1", u)
	}
	if Unit(1<<63) != 0.5 {
		t.Fatalf("Unit(1<<63) = %v, want 0.5", Unit(1<<63))
	}
}
