package rng

import (
	"math"
	"math/bits"
	"testing"
)

// TestFillUint64MatchesUint64 pins the bulk API to the scalar stream: a
// single FillUint64 produces exactly the values of repeated Uint64 calls,
// draw for draw, and leaves the source in the identical state.
func TestFillUint64MatchesUint64(t *testing.T) {
	for _, size := range []int{0, 1, 2, 7, 64, 1000} {
		a, b := New(42), New(42)
		// Advance both off the seed point so the fill starts mid-stream.
		for i := 0; i < 13; i++ {
			a.Uint64()
			b.Uint64()
		}
		dst := make([]uint64, size)
		a.FillUint64(dst)
		for i, got := range dst {
			if want := b.Uint64(); got != want {
				t.Fatalf("size %d: FillUint64[%d] = %#x, loop draw = %#x", size, i, got, want)
			}
		}
		if *a != *b {
			t.Fatalf("size %d: states diverge after fill: %+v vs %+v", size, *a, *b)
		}
	}
}

// TestStateNextMatchesUint64 pins the register-resident step to the
// Source stream: a State copied out of a Source and advanced with Next
// yields the Source's Uint64 draws one for one, and writing it back
// leaves the Source where as many Uint64 calls would. The first draws
// of seed 42 are pinned too, so rebasing Source on State cannot have
// changed the stream.
func TestStateNextMatchesUint64(t *testing.T) {
	golden := []uint64{0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1, 0xfde6dc7fe2ec5e64}
	g := New(42)
	for i, want := range golden {
		if got := g.Uint64(); got != want {
			t.Fatalf("seed 42 draw %d = %#x, want %#x", i, got, want)
		}
	}
	for _, draws := range []int{0, 1, 2, 7, 1000} {
		a, b := New(42), New(42)
		for i := 0; i < 13; i++ {
			a.Uint64()
			b.Uint64()
		}
		st := a.State()
		for i := 0; i < draws; i++ {
			var got uint64
			st, got = st.Next()
			if want := b.Uint64(); got != want {
				t.Fatalf("draws %d: Next %d = %#x, Uint64 = %#x", draws, i, got, want)
			}
		}
		a.SetState(st)
		if *a != *b {
			t.Fatalf("draws %d: states diverge: %+v vs %+v", draws, *a, *b)
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("draws %d: streams diverge after SetState", draws)
		}
	}
}

// TestSplitSeedMatchesSplitInto pins the SplitInto refactor: the derived
// stream is exactly Seed(SplitSeed(ids...)), for every identifier shape.
func TestSplitSeedMatchesSplitInto(t *testing.T) {
	root := New(7)
	for _, ids := range [][]uint64{{}, {0}, {1}, {3, 0}, {3, 1}, {1, 2, 3}} {
		var a, b Source
		root.SplitInto(&a, ids...)
		b.Seed(root.SplitSeed(ids...))
		if a != b {
			t.Fatalf("ids %v: SplitInto state %+v != Seed(SplitSeed) state %+v", ids, a, b)
		}
	}
}

// TestLaneSlotStreamIsSplitmix pins the lane seed law against a reference
// written out here: slot j seeded with s starts xoshiro256** from the
// four splitmix64 outputs that follow state s, the state Source.Seed(s)
// builds, and draws that generator's sequence, independent of every
// other slot's seed and draw schedule.
func TestLaneSlotStreamIsSplitmix(t *testing.T) {
	seeds := []uint64{0, 1, 0xdeadbeef, 1 << 63}
	var l LaneSource
	l.Resize(len(seeds))
	ref := make([][4]uint64, len(seeds))
	for j, s := range seeds {
		l.Seed(j, s)
		st := s
		for w := range ref[j] {
			ref[j][w] = splitmix64(&st)
		}
	}
	// next is the xoshiro256** step as published, kept apart from
	// State.Next so that a slip in the package's step cannot hide here.
	next := func(s *[4]uint64) uint64 {
		result := bits.RotateLeft64(s[1]*5, 7) * 9
		x := s[1] << 17
		s[2] ^= s[0]
		s[3] ^= s[1]
		s[1] ^= s[2]
		s[0] ^= s[3]
		s[2] ^= x
		s[3] = bits.RotateLeft64(s[3], 45)
		return result
	}
	// Interleave draws across slots in a scrambled order; each slot must
	// still see its own reference sequence.
	for round := 0; round < 64; round++ {
		for _, j := range []int{2, 0, 3, 1} {
			if (round+j)%3 == 0 {
				continue // uneven schedules must not matter
			}
			if got, want := l.Uint64(j), next(&ref[j]); got != want {
				t.Fatalf("round %d slot %d: lane draw %#x, reference %#x", round, j, got, want)
			}
		}
	}
}

// TestLaneBoundedLawsMatchSource pins the bounded draws a lane slot serves
// through Slot(j) to the reduction laws written out here, applied to the
// raw stream of a Source seeded alike: Intn is Lemire's multiply-shift
// rejection and Float64 the top 53 bits scaled by 2^-53. The slots are
// drawn in turn, so each must keep its own stream, and every fourth Intn
// bound is near 2^62, where a quarter of the draws are rejected.
func TestLaneBoundedLawsMatchSource(t *testing.T) {
	seeds := []uint64{12345, 999, 7}
	var l LaneSource
	l.Resize(len(seeds))
	raw := make([]Source, len(seeds))
	for j, s := range seeds {
		l.Seed(j, s)
		raw[j].Seed(s)
	}
	rejected := 0
	lemire := func(r *Source, n int) int {
		un := uint64(n)
		hi, lo := bits.Mul64(r.Uint64(), un)
		for thresh := -un % un; lo < thresh; rejected++ {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
		return int(hi)
	}
	for i := 0; i < 2000; i++ {
		j := i % len(seeds)
		n := 1 + i%97
		if i%4 == 3 {
			n = math.MaxInt/2 + 2 + i
		}
		if got, want := l.Slot(j).Intn(n), lemire(&raw[j], n); got != want {
			t.Fatalf("draw %d slot %d: Intn(%d) = %d, reference %d", i, j, n, got, want)
		}
		if got, want := l.Slot(j).Float64(), float64(raw[j].Uint64()>>11)*0x1p-53; got != want {
			t.Fatalf("draw %d slot %d: Float64 = %v, reference %v", i, j, got, want)
		}
	}
	if bits.UintSize == 64 && rejected == 0 {
		t.Fatal("no Intn draw took the rejection path")
	}
}

// BenchmarkFillUint64 vs BenchmarkUint64Loop: the fill-vs-loop comparison
// of the bulk RNG API.
func BenchmarkFillUint64(b *testing.B) {
	r := New(1)
	dst := make([]uint64, 1024)
	b.SetBytes(8 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.FillUint64(dst)
	}
}

func BenchmarkUint64Loop(b *testing.B) {
	r := New(1)
	dst := make([]uint64, 1024)
	b.SetBytes(8 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = r.Uint64()
		}
	}
}
