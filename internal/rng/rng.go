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

import "math"

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

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
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

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded rejection sampling.
	un := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, un)
		if lo >= un || lo >= -un%un {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	x0, x1 := x&mask, x>>32
	y0, y1 := y&mask, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
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

// Pareto returns a Pareto(xm, alpha) sample: heavy-tailed session lengths
// observed in peer-to-peer systems. It panics if xm <= 0 or alpha <= 0.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("rng: Pareto with non-positive parameter")
	}
	u := r.Float64()
	return xm / math.Pow(1-u, 1/alpha)
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
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s, using inverse-CDF over a precomputed table.
type Zipf struct {
	r   *Rand
	cdf []float64
}

// NewZipf builds a Zipf sampler over n ranks with exponent s > 0.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 || s <= 0 {
		panic("rng: NewZipf with non-positive parameter")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{r: r, cdf: cdf}
}

// Next returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Next() int {
	u := z.r.Float64()
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
