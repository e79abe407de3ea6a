package stats

import "math"

// SplitMix64 is the SplitMix64 finalizer (Steele, Lea & Flood, "Fast
// Splittable Pseudorandom Number Generators", OOPSLA 2014): an invertible
// avalanche mix in which every input bit influences every output bit. It
// is the module's one cheap mixer: seed derivation, fault streams and
// trace IDs all use it.
func SplitMix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed derives the workload seed of one sweep grid point as a pure
// function of a campaign base seed and the point's coordinates (a domain
// tag, the swept parameter values, the case index, ...). Because the seed
// depends only on the coordinates — not on the order grid points happen
// to execute in — sequential and parallel sweeps draw identical task
// sets; this is the property the parallel sweep engine's determinism
// rests on.
//
// Each dimension is folded through a SplitMix64 avalanche round, so
// adjacent coordinates (case 1 vs 2, α_m 4 vs 5 W) yield statistically
// unrelated streams and distinct coordinate tuples collide with
// probability ≈ 2⁻⁶⁴ — unlike the seed*7919+coord linear mixes this
// replaces, which collided deterministically across grid points and
// truncated float coordinates. The result is never 0, so a derived seed
// cannot masquerade as a zero-value "use the default" config sentinel.
func DeriveSeed(base int64, dims ...uint64) int64 {
	z := SplitMix64(uint64(base))
	for _, d := range dims {
		z = SplitMix64(z ^ SplitMix64(d))
	}
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return int64(z)
}

// Unit maps a hash value onto [0, 1) with 53 bits of precision: the
// module's one hash-to-uniform mapping.
func Unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// FloatDim encodes a float64 grid coordinate losslessly for DeriveSeed
// via its IEEE-754 bit pattern. Casting through int64(x*1e6)-style
// scaling truncates: coordinates closer than the scale factor fold onto
// one seed and silently correlate their "independent" random cases.
func FloatDim(x float64) uint64 { return math.Float64bits(x) }
