package sim

import (
	"math"
	"math/rand"
)

// RNG is a named, seeded random stream. Every stochastic component of a
// campaign (per-site weather, per-link fading, per-node jitter, …) draws
// from its own stream derived from the campaign seed and a stable name, so
// adding a new consumer never perturbs existing draws and results remain
// bit-reproducible across runs.
type RNG struct {
	name string
	r    *rand.Rand
}

// NewRNG derives a stream from a master seed and a stable name. The name
// is mixed in with FNV-1a, inlined over the string so deriving a stream
// doesn't round-trip the name through a hasher allocation — campaigns
// derive hundreds of streams per run. The constants and update order match
// hash/fnv exactly, so seeds (and therefore every historical draw) are
// unchanged.
func NewRNG(masterSeed int64, name string) *RNG {
	const (
		offset64 uint64 = 14695981039346656037
		prime64  uint64 = 1099511628211
	)
	h := offset64
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	seed := masterSeed ^ int64(h)
	return &RNG{name: name, r: rand.New(rand.NewSource(seed))}
}

// Name returns the stream name.
func (g *RNG) Name() string { return g.name }

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Normal returns a Gaussian draw with the given mean and standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// LogNormalDB returns a log-normal shadowing term expressed directly in dB,
// i.e. a zero-mean Gaussian in the dB domain with standard deviation
// sigmaDB — the standard radio shadowing model.
func (g *RNG) LogNormalDB(sigmaDB float64) float64 {
	return g.r.NormFloat64() * sigmaDB
}

// Exponential returns an exponential draw with the given mean.
func (g *RNG) Exponential(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Rician returns the power gain (linear, mean ≈ 1) of a Rician fading
// channel with K-factor k (linear). For LEO links with a dominant
// line-of-sight component K is typically 5–15 dB.
func (g *RNG) Rician(k float64) float64 {
	// Direct component amplitude and scattered Rayleigh component chosen so
	// E[gain] = 1: direct power k/(k+1), scattered power 1/(k+1).
	sigma := math.Sqrt(1 / (2 * (k + 1)))
	mu := math.Sqrt(k / (k + 1))
	x := mu + sigma*g.r.NormFloat64()
	y := sigma * g.r.NormFloat64()
	return x*x + y*y
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}
