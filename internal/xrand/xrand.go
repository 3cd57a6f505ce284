// Package xrand implements a deterministic, splittable pseudo-random number
// generator (SplitMix64 seeding an xoshiro256**) plus the variates needed by
// the SDC injection campaigns: uniform floats, bounded integers, Bernoulli
// trials, and standard normals.
//
// Determinism matters here: every table in EXPERIMENTS.md must be exactly
// regenerable from a seed, and distributed runs need statistically
// independent per-rank substreams, which Split provides.
package xrand

import "math"

// RNG is an xoshiro256** generator. The zero value is not usable; construct
// with New or Split.
type RNG struct {
	s [4]uint64
	// Cached second normal variate from the Box-Muller pair.
	spare    float64
	hasSpare bool
}

// splitmix64 advances *x and returns the next SplitMix64 output. It is the
// recommended seeding function for xoshiro generators.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// Avoid the all-zero state (probability ~2^-256, but cheap to exclude).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split returns a new generator whose stream is independent of r's
// continuation, derived from r's next output and the stream label. Use one
// label per rank or per experiment arm.
func (r *RNG) Split(label uint64) *RNG {
	base := r.Uint64()
	return New(base ^ (label * 0x9e3779b97f4a7c15) ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
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

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1.0p-53
}

// IntN returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("xrand: IntN with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here;
	// simple rejection keeps the stream layout obvious and exact.
	bound := uint64(n)
	threshold := -bound % bound // (2^64 - bound) mod bound
	for {
		v := r.Uint64()
		if hi, lo := mul64(v, bound); lo >= threshold {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Norm returns a standard normal variate (Box-Muller, with the second
// variate of each pair cached).
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	v := r.Float64()
	rad := math.Sqrt(-2 * math.Log(u))
	ang := 2 * math.Pi * v
	r.spare = rad * math.Sin(ang)
	r.hasSpare = true
	return rad * math.Cos(ang)
}

// jumpPoly is the xoshiro256** jump polynomial: Jump() advances the stream
// by 2^128 draws, giving non-overlapping substreams with a hard guarantee
// (Split's independence is statistical; Jump's is structural).
var jumpPoly = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}

// Jump advances this generator by 2^128 steps in O(256) work and returns a
// generator holding the pre-jump state, so successive Jump calls hand out
// disjoint 2^128-draw substreams.
func (r *RNG) Jump() *RNG {
	pre := &RNG{s: r.s}
	var s0, s1, s2, s3 uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				s0 ^= r.s[0]
				s1 ^= r.s[1]
				s2 ^= r.s[2]
				s3 ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	r.hasSpare = false
	return pre
}
