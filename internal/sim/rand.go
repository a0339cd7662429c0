package sim

import (
	"math"
	"math/rand"
)

// RNG is a seeded random source with the distributions the latency
// models need. It wraps math/rand deterministically; simulations built
// from the same seed replay identically.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// LogNormal returns a log-normally distributed value whose underlying
// normal has mean mu and standard deviation sigma. Latency noise in the
// cluster model is log-normal: strictly positive, right-skewed, matching
// the long right tails visible in the paper's Figures 4 and 5.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// LogNormalMean returns a log-normal sample scaled to have the given
// mean: E[X] = mean, with sigma controlling the spread of the underlying
// normal (0.25 is a mild jitter, 1.0 a heavy tail).
func (g *RNG) LogNormalMean(mean, sigma float64) float64 {
	if mean <= 0 {
		return 0
	}
	mu := math.Log(mean) - sigma*sigma/2
	return g.LogNormal(mu, sigma)
}

// Exp returns an exponentially distributed value with the given mean.
func (g *RNG) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Bernoulli reports true with probability prob.
func (g *RNG) Bernoulli(prob float64) bool {
	return g.r.Float64() < prob
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Zipf draws a rank from [0, n) with P(k) ∝ 1/(k+1)^s — the skewed
// popularity law request streams follow (rank 0 is the most popular).
// Inverse-CDF over the n-term generalized harmonic sum: one uniform
// draw per sample, deterministic for a given stream, and O(n), which
// is fine for the small catalogs workloads use.
func (g *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	var total float64
	for k := 1; k <= n; k++ {
		total += 1 / math.Pow(float64(k), s)
	}
	u := g.r.Float64() * total
	for k := 1; k <= n; k++ {
		u -= 1 / math.Pow(float64(k), s)
		if u <= 0 {
			return k - 1
		}
	}
	return n - 1
}

// Child derives a new independent generator from this one's stream, so
// subsystems can be given private streams that stay decoupled as call
// patterns change.
func (g *RNG) Child() *RNG {
	return NewRNG(g.r.Int63())
}
