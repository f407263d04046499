package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 64", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a := New(root.SplitSeed(1))
	b := New(root.SplitSeed(2))
	var a2 Source
	root.SplitInto(&a2, 1)
	for i := 0; i < 100; i++ {
		va, va2 := a.Uint64(), a2.Uint64()
		if va != va2 {
			t.Fatalf("split stream 1 not reproducible at step %d", i)
		}
		if va == b.Uint64() {
			t.Fatalf("split streams 1 and 2 collided at step %d", i)
		}
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a, b := New(9), New(9)
	var dst Source
	a.SplitInto(&dst, 3)
	_ = a.SplitSeed(4, 5)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("a split advanced the parent source")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 40; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(5)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed element multiset: sum %d != %d", got, sum)
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	const trials = 200000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / trials
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %.4f, want ~1", mean)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(15)
	for _, p := range []float64{0.5, 0.1, 0.01} {
		const trials = 100000
		var sum float64
		for i := 0; i < trials; i++ {
			sum += float64(r.Geometric(p))
		}
		mean := sum / trials
		want := (1 - p) / p
		if math.Abs(mean-want) > 0.05*want+0.05 {
			t.Errorf("Geometric(%g) mean %.4f, want ~%.4f", p, mean, want)
		}
	}
}

func TestGeometricNonNegative(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		return r.Geometric(0.3) >= 0 && r.Geometric(1) == 0
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(19)
	const trials = 100000
	trues := 0
	for i := 0; i < trials; i++ {
		if r.Bool() {
			trues++
		}
	}
	if math.Abs(float64(trues)-trials/2) > 5*math.Sqrt(trials)/2 {
		t.Fatalf("Bool returned true %d of %d times", trues, trials)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000003)
	}
	_ = sink
}
