package agreeable

import (
	"math"
	"math/rand"
	"testing"

	"sdem/internal/power"
)

// TestSlopeSlackThresholdKeepsBits pins slope's slack threshold: on the
// tasks of random agreeable sets, under every system model and on cube
// and non-cube power laws, slope with the threshold returns the bits of
// slope with the threshold zeroed, which prices the power
// (math.Pow for non-cube λ) at every window. The windows probed straddle
// the threshold, the critical speed and the s_up cap.
func TestSlopeSlackThresholdKeepsBits(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var fast, total int
	for i := 0; i < 300; i++ {
		sys := oracleSystems()[[]string{"test", "default", "unbounded"}[r.Intn(3)]]
		if r.Intn(3) == 0 {
			sys.Core.Lambda = 1.5 + 2*r.Float64()
			sys.Core.Beta = 0.3 / math.Pow(power.MHz(900), sys.Core.Lambda)
		}
		m := []power.Model{power.ModelAlphaZero, power.ModelStatic, power.ModelOverhead}[r.Intn(3)]
		s, err := newSolver(randomAgreeable(r, 1+r.Intn(12)), sys, m)
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		ref := *s
		ref.slack = 0
		for k, tk := range s.tasks {
			w := tk.Workload
			windows := []float64{tk.Window(), w / s.sm, w / sys.Core.SpeedCeiling(), 2 * tk.Window()}
			if thr := s.slack; thr > 0 {
				a := w / thr
				windows = append(windows, a, math.Nextafter(a, 0), math.Nextafter(a, math.Inf(1)))
			}
			for j := 0; j < 40; j++ {
				windows = append(windows, tk.Window()*2*r.Float64(), w/(s.sm*(0.99+0.02*r.Float64())))
			}
			for _, a := range windows {
				total++
				if s.static[k] > 0 && w/a <= s.slack {
					fast++
				}
				g, dg := s.slope(k, a)
				wg, wdg := ref.slope(k, a)
				if math.Float64bits(g) != math.Float64bits(wg) || math.Float64bits(dg) != math.Float64bits(wdg) {
					t.Fatalf("set %d model %d λ %v task %d window %.17g: slope (%.17g, %.17g), without threshold (%.17g, %.17g)",
						i, m, sys.Core.Lambda, k, a, g, dg, wg, wdg)
				}
			}
		}
	}
	if fast < total/10 {
		t.Fatalf("only %d of %d windows took the slack threshold; the test no longer exercises it", fast, total)
	}
}
