package experiments

import (
	"fmt"
	"strings"

	"sdem/internal/power"
	"sdem/internal/stats"
	"sdem/internal/telemetry"
	"sdem/internal/workload"
)

// SwitchPoint is one row of the DVS switch-overhead ablation.
type SwitchPoint struct {
	// SwitchEnergy is the per-frequency-change cost in joules.
	SwitchEnergy float64
	// SDEMON and MBKPS are savings vs MBKP under that cost.
	SDEMON, MBKPS stats.Summary
	// SDEMSwitches and MBKPSwitches are the average number of DVS
	// frequency changes per run.
	SDEMSwitches, MBKPSwitches float64
	// Misses counts deadline misses (expected 0).
	Misses int
}

// AblationSwitchOverhead removes §3's free-voltage-adjustment assumption,
// as the paper's evaluation does: every DVS frequency change costs the
// given energy, charged by the audit whenever a core's consecutive
// segments differ in speed. SDEM-ON's plans hold one speed per task, so
// its advantage must survive realistic switch costs (tens of µJ per
// change on ARM-class cores).
func (c Config) AblationSwitchOverhead() ([]SwitchPoint, error) {
	c = c.withDefaults()
	// Sweep from free switching to a deliberately punitive 1 mJ.
	costs := []float64{0, 1e-6, 1e-5, 1e-4, 1e-3} //lint:allow tolconst: joule-valued switch-energy sweep points, not tolerances
	return runGrid(c, "switch", len(costs), func(i int, tel *telemetry.Recorder) (SwitchPoint, error) {
		cost := costs[i]
		sys := c.system(4, power.Milliseconds(40))
		sys.Core.SwitchEnergy = cost
		pt := SwitchPoint{SwitchEnergy: cost}
		var sdem, mbkps []float64
		var sdemSw, mbkpSw int
		for s := 0; s < c.Seeds; s++ {
			// The seed deliberately excludes the cost coordinate: the
			// ablation is a paired design comparing identical task sets
			// under different switch-energy charges.
			seed := stats.DeriveSeed(c.Seed, domainSwitch, uint64(s))
			tasks, err := workload.Synthetic(workload.SyntheticConfig{N: c.Tasks}, seed)
			if err != nil {
				return SwitchPoint{}, err
			}
			cmp, err := Compare(tasks, sys, c.Cores, tel)
			if err != nil {
				return SwitchPoint{}, err
			}
			pt.Misses += len(cmp.MBKP.Misses) + len(cmp.MBKPS.Misses) + len(cmp.SDEMON.Misses)
			sdem = append(sdem, stats.SavingRatio(cmp.MBKP.Energy, cmp.SDEMON.Energy))
			mbkps = append(mbkps, stats.SavingRatio(cmp.MBKP.Energy, cmp.MBKPS.Energy))
			sdemSw += cmp.SDEMON.Breakdown.SpeedSwitches
			mbkpSw += cmp.MBKP.Breakdown.SpeedSwitches
		}
		pt.SDEMON = stats.Summarize(sdem)
		pt.MBKPS = stats.Summarize(mbkps)
		pt.SDEMSwitches = float64(sdemSw) / float64(c.Seeds)
		pt.MBKPSwitches = float64(mbkpSw) / float64(c.Seeds)
		tel.Count("sdem.sweep.points", 1)
		tel.Count("sdem.sweep.cases", int64(c.Seeds))
		tel.Count("sdem.sweep.misses", int64(pt.Misses))
		return pt, nil
	})
}

// RenderSwitchAblation formats the switch-overhead ablation.
func RenderSwitchAblation(points []SwitchPoint) string {
	var b strings.Builder
	b.WriteString("== ablation: DVS frequency-switch overhead (savings vs MBKP) ==\n")
	fmt.Fprintf(&b, "%-14s %-16s %-16s %-16s %-16s\n",
		"switch (J)", "SDEM-ON", "MBKPS", "SDEM switches", "MBKP switches")
	for _, p := range points {
		fmt.Fprintf(&b, "%-14.3g %-16s %-16s %-16.1f %-16.1f\n",
			p.SwitchEnergy,
			stats.Percent(p.SDEMON.Mean),
			stats.Percent(p.MBKPS.Mean),
			p.SDEMSwitches,
			p.MBKPSwitches)
	}
	return b.String()
}
