// Serve-layer chaos: deterministic fault taps for the HTTP solve fleet.
//
// The schedule-level faults in this package perturb what a platform does
// with a schedule; ServePlan perturbs what a fleet does with a request —
// injected handler latency, injected errors, injected panics — so
// cmd/sdemd's overload machinery (admission control, panic recovery,
// shedding) can be exercised and regression-tested under a replayable
// storm. A plan is a pure function of (seed, config, request ordinal):
// nothing is materialized up front, so it covers an unbounded request
// stream, yet any prefix replays bit-for-bit under the same seed.
package faults

import (
	"fmt"
	"strings"

	"sdem/internal/stats"
)

// ServeKind classifies a serve-layer fault.
type ServeKind int

const (
	// ServeLatency holds the request for Delay seconds before the handler
	// runs (a stalled downstream dependency).
	ServeLatency ServeKind = iota
	// ServeError fails the request with an injected 500 without running
	// the handler (a crashed downstream dependency).
	ServeError
	// ServePanic panics inside the handler chain, exercising the panic
	// recovery middleware.
	ServePanic
)

// String implements fmt.Stringer.
func (k ServeKind) String() string {
	switch k {
	case ServeLatency:
		return "latency"
	case ServeError:
		return "error"
	case ServePanic:
		return "panic"
	default:
		return fmt.Sprintf("ServeKind(%d)", int(k))
	}
}

// ParseServeKinds parses a comma-separated kind list ("latency,panic")
// into kinds for ServeConfig; the empty string selects the default set.
func ParseServeKinds(s string) ([]ServeKind, error) {
	if s == "" {
		return nil, nil
	}
	var kinds []ServeKind
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(name) {
		case "latency":
			kinds = append(kinds, ServeLatency)
		case "error":
			kinds = append(kinds, ServeError)
		case "panic":
			kinds = append(kinds, ServePanic)
		default:
			return nil, fmt.Errorf("faults: unknown serve fault kind %q (want latency, error or panic)", name)
		}
	}
	return kinds, nil
}

// ServeFault is one injected serve-layer fault, bound to the request it
// perturbs.
type ServeFault struct {
	// Request is the 1-based request ordinal (cmd/sdemd's monotone
	// request ID) the fault fires on.
	Request int64 `json:"request"`
	// Kind selects the perturbation.
	Kind ServeKind `json:"kind"`
	// Delay is the injected handler latency in seconds (ServeLatency).
	Delay float64 `json:"delay,omitempty"`
}

// ServeConfig tunes a ServePlan.
type ServeConfig struct {
	// Rate is the fraction of requests faulted, in [0, 1].
	Rate float64
	// Kinds are the fault kinds drawn from, uniformly. Empty means
	// latency only — the one kind that perturbs no response body, so the
	// default chaos mode cannot break response invariants.
	Kinds []ServeKind
	// MaxDelay bounds injected latency in seconds (default 50 ms);
	// ServeLatency draws uniformly from (0, MaxDelay].
	MaxDelay float64
}

func (c ServeConfig) withDefaults() ServeConfig {
	if len(c.Kinds) == 0 {
		c.Kinds = []ServeKind{ServeLatency}
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 0.050
	}
	if c.Rate < 0 {
		c.Rate = 0
	}
	if c.Rate > 1 {
		c.Rate = 1
	}
	return c
}

// serveDomain tags the SplitMix64 derivations of this fault family so
// serve-chaos draws can never collide with sweep or workload seed
// streams derived from the same campaign seed.
const serveDomain uint64 = 0x5efa017c4a05

// ServePlan is a deterministic, replayable serve-layer fault plan: a
// pure function of (Seed, Config, request ordinal). The zero value (or
// Rate 0) injects nothing.
type ServePlan struct {
	Seed   int64
	Config ServeConfig
}

// NewServePlan binds a config and seed into a plan.
func NewServePlan(cfg ServeConfig, seed int64) ServePlan {
	return ServePlan{Seed: seed, Config: cfg.withDefaults()}
}

// At returns the fault injected on request ordinal id, if any. It is a
// pure function: the same (plan, id) always returns the same fault, so a
// replayed request stream sees the identical storm.
func (p ServePlan) At(id int64) (ServeFault, bool) {
	cfg := p.Config.withDefaults()
	if cfg.Rate <= 0 {
		return ServeFault{}, false
	}
	if unit(p.Seed, id, 0) >= cfg.Rate {
		return ServeFault{}, false
	}
	f := ServeFault{Request: id}
	f.Kind = cfg.Kinds[int(uint64(stats.DeriveSeed(p.Seed, serveDomain, uint64(id), 1))%uint64(len(cfg.Kinds)))]
	if f.Kind == ServeLatency {
		// (0, MaxDelay]: a zero-delay latency fault would be invisible.
		f.Delay = (1 - unit(p.Seed, id, 2)) * cfg.MaxDelay
	}
	return f, true
}

// unit derives a uniform float64 in [0, 1) from the plan seed, the
// request ordinal, and a draw slot.
func unit(seed, id int64, slot uint64) float64 {
	return stats.Unit(uint64(stats.DeriveSeed(seed, serveDomain, uint64(id), slot)))
}
