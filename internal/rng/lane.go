package rng

import "math/bits"

// LaneSource is the generator bank of the batched execution lane: Width
// independent splitmix64 counter-mode streams, one per lane slot, each
// advanced on demand by the slot index. Counter mode is what makes the
// bank batchable — a draw is one add and a finalizer on the slot's own
// state word, with no cross-slot dependency, so a kernel stepping a whole
// lane issues Width independent draws the CPU can overlap, where a single
// xoshiro stream would serialize them through its state.
//
// Slot streams follow the package-level lane seed law: slot j hosting
// trial i is seeded with Source.SplitSeed(experiment, i), tying the
// batched flavor to the same (seed, experiment, trial) lineage as the
// scalar path. The bounded-draw laws (Intn's multiply-shift rejection,
// Float64's 53-bit mantissa scaling) are the same as Source's, applied to
// this stream.
//
// A LaneSource is not safe for concurrent use; each worker owns one.
type LaneSource struct {
	state []uint64
}

// splitmixGamma is the splitmix64 state increment (Weyl constant); one
// LaneSource draw advances the slot state by it and finalizes.
const splitmixGamma = 0x9e3779b97f4a7c15

// Resize grows (or shrinks) the bank to width slots, reusing the backing
// array when possible. Slot states are unspecified until Seed.
func (l *LaneSource) Resize(width int) {
	if cap(l.state) < width {
		l.state = make([]uint64, width)
	}
	l.state = l.state[:width]
}

// Seed resets slot j to the stream determined by seed.
func (l *LaneSource) Seed(j int, seed uint64) { l.state[j] = seed }

// Uint64 returns the next 64 pseudo-random bits of slot j's stream.
func (l *LaneSource) Uint64(j int) uint64 {
	s := l.state[j] + splitmixGamma
	l.state[j] = s
	s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9
	s = (s ^ (s >> 27)) * 0x94d049bb133111eb
	return s ^ (s >> 31)
}

// Intn returns a uniform pseudo-random integer in [0, n) from slot j's
// stream, under the same Lemire multiply-shift rejection law as
// Source.Intn. It panics if n <= 0.
func (l *LaneSource) Intn(j, n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	un := uint64(n)
	v := l.Uint64(j)
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = l.Uint64(j)
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform pseudo-random float64 in [0, 1) from slot j's
// stream, under the same 53-bit law as Source.Float64.
func (l *LaneSource) Float64(j int) float64 {
	return float64(l.Uint64(j)>>11) * 0x1p-53
}
