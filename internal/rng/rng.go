// Package rng provides a deterministic, splittable pseudo-random number
// generator and the sampling distributions the rcpt study apparatus needs.
//
// Reproducibility is a hard requirement for the study pipeline: every
// synthetic respondent, job trace, and module-load log must be regenerable
// bit-for-bit from a seed, including when generation is fanned out across
// a worker pool. The generator here is a SplitMix64-seeded xoshiro256**
// with an explicit Split operation that derives statistically independent
// child streams, so parallel generation order cannot perturb results.
package rng

import (
	"fmt"
	"math"
)

// RNG is a deterministic pseudo-random number generator.
//
// The zero value is not usable; construct with New or Split. RNG is not
// safe for concurrent use; give each goroutine its own stream via Split.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64 state expansion.
// Two generators built from the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro256** requires a nonzero state; SplitMix64 expansion of any
	// seed yields one, but guard against the astronomically unlikely case.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// NewFromString returns a generator seeded from the FNV-1a hash of s.
// Useful for deriving named, stable sub-streams ("cohort-2024/jobs").
func NewFromString(s string) *RNG {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return New(h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives a child generator whose stream is statistically
// independent of the parent's subsequent output. The parent advances by
// exactly four draws, so splitting is itself deterministic.
func (r *RNG) Split() *RNG {
	c := &RNG{}
	for i := range c.s {
		// Re-mix each draw through SplitMix64 finalization so the child
		// state is not a window of the parent stream.
		z := r.Uint64() + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		c.s[i] = z ^ (z >> 31)
	}
	if c.s[0]|c.s[1]|c.s[2]|c.s[3] == 0 {
		c.s[0] = 1
	}
	return c
}

// SplitNamed derives a child stream keyed by name, independent of how many
// anonymous Splits have occurred. It does not advance the parent.
func (r *RNG) SplitNamed(name string) *RNG {
	child := NewFromString(name)
	for i := range child.s {
		child.s[i] ^= r.s[i]
	}
	if child.s[0]|child.s[1]|child.s[2]|child.s[3] == 0 {
		child.s[0] = 1
	}
	// Decorrelate from both parents with a few warm-up draws.
	for i := 0; i < 4; i++ {
		child.Uint64()
	}
	return child
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n=%d", n))
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method (unbiased). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n=0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	thresh := -n % n
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= thresh {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p. p outside [0,1] is clamped.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Range returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (r *RNG) Range(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("rng: Range called with hi=%g < lo=%g", hi, lo))
	}
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a standard normal variate (Box–Muller, polar form).
func (r *RNG) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// NormMeanStd returns a normal variate with the given mean and standard
// deviation. A non-positive std returns mean exactly.
func (r *RNG) NormMeanStd(mean, std float64) float64 {
	if std <= 0 {
		return mean
	}
	return mean + std*r.Norm()
}

// LogNormal returns exp(N(mu, sigma)). Heavy-tailed; used for job
// walltimes and memory footprints.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.NormMeanStd(mu, sigma))
}

// Poisson returns a Poisson(lambda) variate. For small lambda it uses
// Knuth's product method; for large lambda the PTRS-like normal
// approximation with rounding, adequate for workload synthesis.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// Normal approximation with continuity correction; clamp at 0.
	v := r.NormMeanStd(lambda, math.Sqrt(lambda))
	if v < 0 {
		return 0
	}
	return int(v + 0.5)
}

// Zipf samples ranks 1..n with P(k) proportional to 1/k^s using inverse
// transform over the precomputed harmonic table held by the Zipf struct.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over ranks 1..n with exponent s >= 0.
// It panics if n <= 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("rng: NewZipf called with n=%d", n))
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}
}

// Rank draws a rank in [0, n) (zero-based) from the Zipf distribution.
func (z *Zipf) Rank(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Shuffle permutes xs in place (Fisher–Yates).
func Shuffle[T any](r *RNG, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Sample draws k distinct elements from xs uniformly without replacement
// (partial Fisher–Yates over a copy). If k >= len(xs) a shuffled copy of
// all elements is returned.
func Sample[T any](r *RNG, xs []T, k int) []T {
	cp := make([]T, len(xs))
	copy(cp, xs)
	if k >= len(cp) {
		Shuffle(r, cp)
		return cp
	}
	if k <= 0 {
		return nil
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(cp)-i)
		cp[i], cp[j] = cp[j], cp[i]
	}
	return cp[:k:k]
}
