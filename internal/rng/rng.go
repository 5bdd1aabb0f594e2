// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used by every stochastic component in this repository.
//
// All experiments in the paper reproduction must be exactly reproducible
// from a seed, and independent sub-streams (one per site generator, one per
// synthetic model, one per simulator run) must not interfere with each
// other. The global generator in math/rand satisfies neither requirement,
// so this package implements xoshiro256** (Blackman & Vigna) with a
// SplitMix64 seeding sequence, plus the handful of variate primitives the
// higher layers need (uniform, normal, exponential).
package rng

import "math"

// Source is a xoshiro256** generator. The zero value is invalid; use New.
type Source struct {
	s         [4]uint64
	spare     float64 // cached second output of the polar normal method
	haveSpare bool
}

// New returns a Source seeded from seed via SplitMix64, which guarantees
// the internal state is not all-zero and decorrelates nearby seeds.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

// Derive maps a master seed and a stream label to a child seed. Distinct
// labels give decorrelated seeds (the label is FNV-1a hashed, combined
// with the master, and finalized with the SplitMix64 mixer), so callers
// can name their sub-streams ("model:Lublin", "bootstrap") instead of
// maintaining ad-hoc seed offsets, and streams stay independent of the
// order — or the worker — in which they are created.
func Derive(master uint64, label string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211 // FNV-1a prime
	}
	z := h ^ master
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives a new independent Source from the current stream. The
// derived stream is seeded from two outputs of the parent, so distinct
// call sites observe distinct streams while the parent remains usable.
func (r *Source) Split() *Source {
	a := r.Uint64()
	b := r.Uint64()
	return New(a ^ (b << 1) ^ 0x6a09e667f3bcc909)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0,1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// OpenFloat64 returns a uniform variate in the open interval (0,1),
// suitable as input to inverse CDFs that diverge at 0 or 1.
func (r *Source) OpenFloat64() float64 {
	for {
		u := (float64(r.Uint64()>>11) + 0.5) / (1 << 53)
		if u > 0 && u < 1 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Norm returns a standard normal variate using the polar (Marsaglia)
// method. Spare values are cached, so consecutive calls alternate between
// generating a pair and returning the cached member.
func (r *Source) Norm() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			r.spare = v * f
			r.haveSpare = true
			return u * f
		}
	}
}

// Exp returns a standard (rate 1) exponential variate.
func (r *Source) Exp() float64 {
	return -math.Log(r.OpenFloat64())
}

// Perm returns a pseudo-random permutation of [0,n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
