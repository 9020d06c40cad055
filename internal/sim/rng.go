package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** by Blackman and Vigna). Every stochastic component of the
// simulator owns its own RNG stream, derived from the simulation seed via
// Fork, so that adding randomness to one component never perturbs the
// random sequence observed by another. That property keeps comparative
// experiments (scheme A vs. scheme B on the "same" workload) honest.
//
// The zero value is not usable; construct streams with NewRNG or Fork.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the seed-expansion state and returns the next
// 64-bit value. It is used only to initialize and fork streams.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Distinct seeds yield
// statistically independent streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Fork derives a new independent stream from r, keyed by label. Forking
// with distinct labels produces distinct streams; forking with the same
// label twice produces identical streams (which is occasionally useful
// for common-random-number variance reduction).
func (r *RNG) Fork(label uint64) *RNG {
	child := &RNG{}
	r.ForkInto(child, label)
	return child
}

// ForkInto is Fork writing the derived stream into caller-owned storage
// (typically a slab element) instead of allocating. The derivation reads
// the parent's state without advancing it, so forks are order-independent
// and safe to perform concurrently from multiple goroutines as long as
// the parent is not being advanced at the same time.
func (r *RNG) ForkInto(child *RNG, label uint64) {
	x := r.s[0] ^ rotl(r.s[2], 17) ^ (label * 0xd1342543de82ef95)
	for i := range child.s {
		child.s[i] = splitmix64(&x)
	}
	if child.s[0]|child.s[1]|child.s[2]|child.s[3] == 0 {
		child.s[0] = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// State returns the generator's internal state, for checkpointing. A
// stream restored with SetState continues the exact value sequence the
// original would have produced.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state with one previously
// returned by State. The all-zero state (never produced by a live
// stream) is rejected by nudging, matching NewRNG's guard.
func (r *RNG) SetState(s [4]uint64) {
	r.s = s
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// Uint64 returns the next value in the stream.
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

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("sim: IntN called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here;
	// plain multiply-shift rejection keeps the stream consumption simple
	// and the bias below 2^-53 for the small bounds we use.
	return int(r.Uint64() % uint64(n))
}

// UniformFloat returns a uniform value in [lo, hi).
func (r *RNG) UniformFloat(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// UniformDuration returns a uniform duration in [lo, hi).
func (r *RNG) UniformDuration(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(r.Uint64()%uint64(hi-lo))
}

// Angle returns a uniform direction in [0, 2*pi).
func (r *RNG) Angle() float64 { return r.Float64() * 2 * math.Pi }
