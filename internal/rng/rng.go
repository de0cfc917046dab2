// Package rng provides a small, deterministic pseudo-random number
// generator and the distributions the simulator needs.
//
// The simulator must be reproducible: a seeded run has to produce the
// identical event trace on every machine. math/rand's global functions are
// not seedable per-component and math/rand/v2 sources are not stable across
// Go versions by contract, so the package implements xoshiro256** directly.
// Generators are cheap value-like objects; independent streams are derived
// with Split so that adding a consumer of randomness in one component does
// not perturb the stream seen by another.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, which guarantees
// a well-mixed non-zero internal state for any seed, including 0.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		r.s[i] = Mix64(sm)
	}
	return r
}

// Mix64 is the splitmix64 finalizer: a bijection on uint64 whose output
// bits each depend on every input bit. It is the one mixing step the
// simulator's hashes, signatures and authenticators share.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent generator stream. The derived stream is a
// deterministic function of the parent state and label, and advancing the
// child never affects the parent beyond the single Uint64 drawn here.
func (r *Rand) Split(label uint64) *Rand {
	return New(r.Uint64() ^ (label * 0xd1342543de82ef95))
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// next is one xoshiro256** step over the state words passed by value, so
// a loop that keeps them in locals (ShuffleSlice) and Uint64 share it.
func next(s0, s1, s2, s3 uint64) (v, n0, n1, n2, n3 uint64) {
	v = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return v, s0, s1, s2, rotl(s3, 45)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	v, s0, s1, s2, s3 := next(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return v
}

// bounded maps the draw v into [0, un) by Lemire's nearly-divisionless
// method (Lemire, "Fast Random Integer Generation in an Interval", ACM
// TOMACS 2019): the high word of v·un, unless the low word falls in the
// biased sliver, in which case ok is false and the caller draws again.
// The 128-bit product is one hardware multiply.
func bounded(v, un uint64) (x uint64, ok bool) {
	hi, lo := bits.Mul64(v, un)
	return hi, lo >= un || lo >= -un%un
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	for {
		if x, ok := bounded(r.Uint64(), un); ok {
			return int(x)
		}
	}
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Exp returns an exponentially distributed sample with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := r.Float64()
	// 1-u is in (0, 1], so the log is finite.
	return -math.Log(1-u) / rate
}

// Norm returns a normally distributed sample with the given mean and
// standard deviation, via the Box-Muller transform.
func (r *Rand) Norm(mean, stddev float64) float64 {
	u1 := 1 - r.Float64() // (0, 1]
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a uniformly random permutation of [0, len(p)),
// making exactly the draws Perm(len(p)) makes, so a hot caller can reuse
// one buffer across calls.
func (r *Rand) PermInto(p []int) {
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// ShuffleSlice pseudo-randomizes the order of s by a descending
// Fisher–Yates: step i = len(s)-1 … 1 swaps s[i] with s[Intn(i+1)]. It
// makes exactly those draws, but keeps r's state in locals for the whole
// loop and writes it back once, so a long shuffle costs one xoshiro step,
// one multiply and one swap per element.
func ShuffleSlice[T any](r *Rand, s []T) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := len(s) - 1; i > 0; i-- {
		un := uint64(i + 1)
		for {
			var v uint64
			v, s0, s1, s2, s3 = next(s0, s1, s2, s3)
			if j, ok := bounded(v, un); ok {
				s[i], s[j] = s[j], s[i]
				break
			}
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}
