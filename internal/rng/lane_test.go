package rng

import (
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

// TestLaneSlotStreamIsSplitmix pins the lane seed law: slot j seeded with
// s produces the splitmix64 sequence started at state s, independent of
// every other slot's seed and draw schedule.
func TestLaneSlotStreamIsSplitmix(t *testing.T) {
	var l LaneSource
	l.Resize(4)
	seeds := []uint64{0, 1, 0xdeadbeef, 1 << 63}
	for j, s := range seeds {
		l.Seed(j, s)
	}
	// Interleave draws across slots in a scrambled order; each slot must
	// still see its own pure splitmix64 sequence.
	ref := make([]uint64, 4)
	copy(ref, seeds)
	drawn := make([][]uint64, 4)
	for round := 0; round < 16; round++ {
		for _, j := range []int{2, 0, 3, 1} {
			if (round+j)%3 == 0 {
				continue // uneven schedules must not matter
			}
			drawn[j] = append(drawn[j], l.Uint64(j))
		}
	}
	for j := range drawn {
		st := seeds[j]
		for i, got := range drawn[j] {
			if want := splitmix64(&st); got != want {
				t.Fatalf("slot %d draw %d = %#x, want splitmix64 %#x", j, i, got, want)
			}
		}
	}
}

// TestLaneStateNextMatchesUint64 pins the register-resident form of a
// lane slot to the slot's stream: copying slot j out with State, drawing
// with Next and writing it back with SetState gives Uint64's draws and
// leaves the slot where as many Uint64 calls would, and no other slot
// moves. (TestLaneSlotStreamIsSplitmix pins Uint64 itself.)
func TestLaneStateNextMatchesUint64(t *testing.T) {
	for _, draws := range []int{0, 1, 2, 7, 1000} {
		var a, b LaneSource
		a.Resize(3)
		b.Resize(3)
		for j := range 3 {
			a.Seed(j, uint64(j)*0x1234567+5)
			b.Seed(j, uint64(j)*0x1234567+5)
			for range 13 {
				a.Uint64(j)
				b.Uint64(j)
			}
		}
		st := a.State(1)
		for i := 0; i < draws; i++ {
			var got uint64
			st, got = st.Next()
			if want := b.Uint64(1); got != want {
				t.Fatalf("draws %d: Next %d = %#x, Uint64 = %#x", draws, i, got, want)
			}
		}
		a.SetState(1, st)
		for j := range 3 {
			if x, y := a.Uint64(j), b.Uint64(j); x != y {
				t.Fatalf("draws %d: slot %d streams diverge after SetState", draws, j)
			}
		}
	}
}

// TestLaneBoundedLawsMatchSource pins the lane's bounded-draw laws to the
// scalar Source's: feeding the same 64-bit outputs through Intn and
// Float64 yields the same values. The raw streams differ by design; the
// reduction laws must not.
func TestLaneBoundedLawsMatchSource(t *testing.T) {
	// A scalar Source whose Uint64 sequence is replayed into the lane via
	// seeds chosen so one lane draw reproduces one scalar draw: seed the
	// slot so that splitmix64(state+gamma) equals the scalar output. That
	// inversion is awkward; instead compare against a reference
	// implementation of each law applied to the lane's own raw draws.
	var l LaneSource
	l.Resize(1)
	l.Seed(0, 12345)
	raw := LaneSource{state: []uint64{12345}}
	for i := 0; i < 2000; i++ {
		n := 1 + i%97
		got := l.Intn(0, n)
		// Reference: Lemire multiply-shift rejection on the raw stream.
		un := uint64(n)
		v := raw.Uint64(0)
		hi, lo := bits.Mul64(v, un)
		if lo < un {
			thresh := -un % un
			for lo < thresh {
				v = raw.Uint64(0)
				hi, lo = bits.Mul64(v, un)
			}
		}
		if got != int(hi) {
			t.Fatalf("draw %d: Intn(%d) = %d, reference = %d", i, n, got, int(hi))
		}
	}
	l.Seed(0, 999)
	raw.Seed(0, 999)
	for i := 0; i < 100; i++ {
		if got, want := l.Float64(0), float64(raw.Uint64(0)>>11)*0x1p-53; got != want {
			t.Fatalf("Float64 draw %d: %v != %v", i, got, want)
		}
	}
}

// TestLaneIntnUniform is a coarse chi-square smoke of the lane's bounded
// draw: 64k draws over 16 buckets must not deviate wildly from uniform.
func TestLaneIntnUniform(t *testing.T) {
	var l LaneSource
	l.Resize(1)
	l.Seed(0, 2024)
	const n, draws = 16, 1 << 16
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[l.Intn(0, n)]++
	}
	exp := float64(draws) / n
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	// 99.9th percentile of chi-square with 15 degrees of freedom.
	if chi2 > 37.70 {
		t.Fatalf("lane Intn chi-square = %.2f over 15 dof (counts %v)", chi2, counts)
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
