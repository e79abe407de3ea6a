package schedule

import (
	"fmt"
	"math"

	"sdem/internal/numeric"
	"sdem/internal/power"
)

// Meter accumulates the energy breakdown of a schedule incrementally, as
// segments are emitted, in O(cores) memory — the streaming counterpart of
// Audit for runs whose full segment list would not fit in memory (days of
// virtual time in the soak harness).
//
// It makes the same charging decisions as Audit — per-segment dynamic and
// static energy, DVS switches between consecutive per-core segments,
// gapCost on every idle gap between Tol-merged busy intervals, memory
// busy time over the union across cores — but accumulates them in
// arrival order instead of Audit's core-by-core order, so totals can
// differ from Audit's by floating-point summation order (bounded by a
// few ULPs; the meter tests pin the agreement).
//
// Contract: per core, segments must be added in non-decreasing start
// order and must not overlap (the online executor guarantees both — core
// time only moves forward). Across cores, segments of one planning batch
// may arrive in any order; Seal(next) tells the meter no future segment
// will start before next, letting it retire the batch's memory
// intervals. Finish closes the horizon and returns the breakdown.
type Meter struct {
	sys        power.System
	corePolicy SleepPolicy
	memPolicy  SleepPolicy
	start      float64
	end        float64 // high-water segment end

	coreCur   []float64 // per-core merged-busy walk position
	coreSpeed []float64 // last segment speed per core
	coreSegs  []int     // segments seen per core

	b       Breakdown
	busyLen float64 // merged memory busy seconds, finalized intervals

	pending intervalsByStart // open batch: intervals not yet retired
	memCur  float64          // memory gap walk position
	memBusy bool             // any memory interval finalized yet
}

// NewMeter starts a meter over cores physical cores with the audit
// horizon opening at start, charging idle gaps under the given sleep
// policies (SleepBreakEven is the SDEM convention).
func NewMeter(cores int, start float64, sys power.System, corePolicy, memPolicy SleepPolicy) *Meter {
	m := &Meter{
		sys:        sys,
		corePolicy: corePolicy,
		memPolicy:  memPolicy,
		start:      start,
		end:        start,
		coreCur:    make([]float64, cores),
		coreSpeed:  make([]float64, cores),
		coreSegs:   make([]int, cores),
		memCur:     start,
	}
	for i := range m.coreCur {
		m.coreCur[i] = start
	}
	return m
}

// Add charges one execution segment. Per core, calls must come in
// non-decreasing start order without overlap.
//
//sdem:hotpath
func (m *Meter) Add(core int, seg Segment) error {
	if core < 0 || core >= len(m.coreCur) {
		return fmt.Errorf("meter: core %d out of range", core)
	}
	d := seg.End - seg.Start
	if d <= 0 {
		return fmt.Errorf("meter: bad segment [%g,%g] on core %d", seg.Start, seg.End, core)
	}
	cur := m.coreCur[core]
	if seg.Start < cur-Tol {
		return fmt.Errorf("meter: segment [%g,%g] on core %d starts before the core's busy end %g", seg.Start, seg.End, core, cur)
	}
	c := m.sys.Core
	m.b.CoreDynamic += c.Dynamic(seg.Speed) * d
	m.b.CoreStatic += c.Static * d
	if m.coreSegs[core] > 0 && speedSwitch(m.coreSpeed[core], seg.Speed) {
		m.b.SpeedSwitches++
		m.b.CoreSwitch += c.SwitchEnergy
	}
	if seg.Start > cur+Tol {
		chargeCoreGap(&m.b, seg.Start-cur, c, m.corePolicy)
	}
	if seg.End > cur {
		m.coreCur[core] = seg.End
	}
	m.coreSpeed[core] = seg.Speed
	m.coreSegs[core]++
	if seg.End > m.end {
		m.end = seg.End
	}
	m.pending = append(m.pending, Interval{seg.Start, seg.End})
	return nil
}

// Seal declares that no future segment will start before next, retiring
// every pending memory interval that can no longer grow. The online
// engine calls it at each planning-batch boundary with the next arrival
// time (+Inf at the end of the run).
func (m *Meter) Seal(next float64) {
	if len(m.pending) == 0 {
		return
	}
	merged := mergeInPlace(&m.pending)
	// The last merged interval may still be extended by a segment
	// starting within Tol of its end; hold it open in that case.
	keep := 0
	if last := merged[len(merged)-1]; last.End >= next-Tol {
		keep = 1
	}
	for _, iv := range merged[:len(merged)-keep] {
		if iv.Start > m.memCur+Tol {
			chargeMemGap(&m.b, iv.Start-m.memCur, m.sys.Memory, m.memPolicy)
		}
		m.busyLen += iv.Len()
		m.memBusy = true
		if iv.End > m.memCur {
			m.memCur = iv.End
		}
	}
	if keep == 1 {
		m.pending[0] = merged[len(merged)-1]
		m.pending = m.pending[:1]
	} else {
		m.pending = m.pending[:0]
	}
}

// Finish closes the audit horizon at max(end, latest segment end),
// charges the trailing idle gaps and the never-used components, and
// returns the breakdown. The meter is spent afterwards.
func (m *Meter) Finish(end float64) Breakdown {
	m.Seal(math.Inf(1))
	if end < m.end {
		end = m.end
	}
	horizon := math.Max(0, end-m.start)
	for c := range m.coreCur {
		if m.coreSegs[c] == 0 {
			// A never-used core idles the whole horizon under SleepNever
			// and simply stays asleep otherwise (no transition).
			if m.corePolicy == SleepNever {
				m.b.CoreStatic += m.sys.Core.Static * horizon
			}
			continue
		}
		if end > m.coreCur[c]+Tol {
			chargeCoreGap(&m.b, end-m.coreCur[c], m.sys.Core, m.corePolicy)
		}
	}
	if !m.memBusy || numeric.IsZero(m.busyLen, Tol) {
		// Memory never woke: asleep through the whole horizon for free
		// under sleeping policies, idle under SleepNever.
		if m.memPolicy == SleepNever {
			m.b.MemoryStatic += m.sys.Memory.Static * horizon
		} else {
			m.b.MemorySleep += horizon
		}
		return m.b
	}
	if end > m.memCur+Tol {
		chargeMemGap(&m.b, end-m.memCur, m.sys.Memory, m.memPolicy)
	}
	m.b.MemoryStatic += m.sys.Memory.Static * m.busyLen
	return m.b
}

// Running returns the energy accumulated so far: the breakdown's total
// plus the memory static cost of the finalized busy intervals (which
// Finish would otherwise only add at the end of the run). It is
// monotone non-decreasing across Seal calls, so windowed telemetry can
// report per-window energy as Running deltas without closing the meter.
func (m *Meter) Running() float64 {
	return m.b.Total() + m.sys.Memory.Static*m.busyLen
}
