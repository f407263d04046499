// Package rng provides a fast, deterministic, splittable pseudo-random
// number generator used by every simulation in this repository.
//
// The generator is xoshiro256** seeded through splitmix64. Unlike
// math/rand, sources here can be split into independent streams keyed by
// arbitrary identifiers, which lets parallel Monte-Carlo trials be fully
// reproducible: trial i of experiment e always derives its stream from
// (seed, e, i) regardless of scheduling.
//
// # One stream law
//
// Trial i of experiment e draws one stream, however it runs: a Source
// seeded with SplitSeed(e, i), which is what SplitInto(dst, e, i) expands.
// The batched execution lane holds such a Source per slot (LaneSource),
// seeded with the same value, so a batched trial draws its scalar stream,
// and draws it in the scalar loop's order. Its result is byte-identical
// to the unbatched one, whatever the lane width, worker count or blocking.
package rng

import "math/bits"

// Source is a xoshiro256** pseudo-random generator. It is not safe for
// concurrent use; use SplitInto to derive independent per-goroutine
// streams.
type Source struct {
	st State
}

// State is a xoshiro256** state held by value, the register-resident form
// of a Source for fused hot loops: copy it out with Source.State, advance
// it with Next in locals, and write it back once with Source.SetState.
// Four words is small enough for the compiler to keep the state in
// registers across an inlined loop, where a *Source would store and
// reload it through memory on every draw. Next is the generator's only
// step: Uint64 and FillUint64 are built on it, so a loop over Next
// produces the Source's stream draw for draw.
type State struct {
	s0, s1, s2, s3 uint64
}

// Next returns the state advanced by one draw, and that draw's 64 bits.
func (s State) Next() (State, uint64) {
	result := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return s, result
}

// State returns a copy of the source's current state.
func (r *Source) State() State { return r.st }

// SetState replaces the source's state, typically with a State copied out
// by State and advanced with Next.
func (r *Source) SetState(s State) { r.st = s }

// splitmix64 advances the state and returns the next output of the
// splitmix64 generator. It is used to expand seeds into full xoshiro state
// and to mix stream identifiers.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed. Two sources
// created with the same seed produce identical output streams.
func New(seed uint64) *Source {
	var r Source
	r.Seed(seed)
	return &r
}

// Seed resets the source to the stream determined by seed.
func (r *Source) Seed(seed uint64) {
	st := seed
	s := State{splitmix64(&st), splitmix64(&st), splitmix64(&st), splitmix64(&st)}
	// xoshiro must not start from the all-zero state; splitmix64 output is
	// zero for at most one of the four words, so this is unreachable in
	// practice, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s3 = 1
	}
	r.st = s
}

// SplitInto writes into dst a Source whose stream is a deterministic
// function of the receiver's seed-lineage and the given identifiers: the
// form hot per-trial loops use to reseed one worker-local generator
// without a heap allocation per trial. dst is overwritten; the receiver
// is not advanced, so SplitInto may be called concurrently with distinct
// ids as long as the receiver itself is not being advanced.
func (r *Source) SplitInto(dst *Source, ids ...uint64) {
	dst.Seed(r.SplitSeed(ids...))
}

// SplitSeed returns the 64-bit seed of the derived stream for the given
// identifiers: SplitInto(dst, ids...) is exactly dst.Seed(r.SplitSeed(ids...)).
// Exposing the seed lets a Source the caller already owns, such as a
// LaneSource slot, take up a trial's stream (see the package-level stream
// law).
func (r *Source) SplitSeed(ids ...uint64) uint64 {
	st := r.st.s0 ^ bits.RotateLeft64(r.st.s2, 17)
	for _, id := range ids {
		st ^= splitmix64(&id)
		_ = splitmix64(&st)
	}
	return splitmix64(&st)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	var x uint64
	r.st, x = r.st.Next()
	return x
}

// FillUint64 fills dst with the next len(dst) outputs of the stream,
// advancing the source exactly as len(dst) Uint64 calls would — the fill
// is draw-for-draw identical to the scalar loop (a property test pins
// this). The state is a local State for the whole batch instead of
// round-tripping through the receiver once per draw, which is what makes
// bulk generation cheaper than the loop.
func (r *Source) FillUint64(dst []uint64) {
	s := r.st
	// Incrementing i after the store lets the compiler bump it in place;
	// the range form compiles to one extra register copy per word.
	for i := 0; i < len(dst); {
		s, dst[i] = s.Next()
		i++
	}
	r.st = s
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Source) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform pseudo-random integer in [0, n). It panics if
// n <= 0. The implementation uses Lemire's multiply-shift rejection method,
// which avoids the modulo bias of naive reduction and the division of the
// classical rejection method on the common path.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Int31n is like Intn but kept for call sites that index int32 CSR arrays;
// n must fit in an int32.
func (r *Source) Int31n(n int32) int32 {
	return int32(r.Intn(int(n)))
}

// Float64 returns a uniform pseudo-random float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Bool returns an unbiased pseudo-random boolean.
func (r *Source) Bool() bool {
	return r.Uint64()&1 == 1
}

// Perm returns a uniform pseudo-random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomises the order of n elements using the provided
// swap function, exactly like math/rand.Shuffle.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
