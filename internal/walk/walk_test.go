package walk

import (
	"math"
	"testing"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

func TestStepStaysOnNeighbors(t *testing.T) {
	g := graph.Lollipop(13)
	r := rng.New(1)
	v := int32(0)
	for i := 0; i < 10000; i++ {
		u := g.Kernel().Step(v, r)
		if !g.HasEdge(int(v), int(u)) {
			t.Fatalf("step %d -> %d is not an edge", v, u)
		}
		v = u
	}
}

func TestStepUniformOverNeighbors(t *testing.T) {
	g := graph.Star(5) // centre 0 with 4 leaves
	r := rng.New(3)
	counts := map[int32]int{}
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[g.Kernel().Step(0, r)]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)-trials/4) > 5*math.Sqrt(trials)*0.5 {
			t.Errorf("neighbour %d drawn %d times, want ~%d", v, c, trials/4)
		}
	}
}

func TestCoverTimeCompleteCouponCollector(t *testing.T) {
	n := 32
	g := graph.Complete(n)
	rn := NewRunner(11, 3)
	res := rn.Run(3000, func(_ int, r *rng.Source) float64 {
		steps, ok := CoverTime(g, 0, 1<<24, r)
		if !ok {
			t.Error("cover capped")
		}
		return float64(steps)
	})
	var sum float64
	for _, v := range res {
		sum += v
	}
	mean := sum / float64(len(res))
	// Coupon collector on K_n: ~ (n-1) H_{n-1}.
	want := 0.0
	for k := 1; k <= n-1; k++ {
		want += float64(n-1) / float64(k)
	}
	if math.Abs(mean-want) > 0.08*want {
		t.Errorf("K_%d cover time %.1f, want ~%.1f", n, mean, want)
	}
}

func TestRunnerDeterminism(t *testing.T) {
	g := graph.Cycle(16)
	run := func() []float64 {
		rn := NewRunner(42, 9)
		return rn.Run(64, func(_ int, r *rng.Source) float64 {
			s, _ := CoverTime(g, 0, 1<<20, r)
			return float64(s)
		})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runner not deterministic at trial %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunnerDeterminismAcrossWorkerCounts(t *testing.T) {
	g := graph.Path(12)
	run := func(workers int) []float64 {
		rn := NewRunner(5, 4)
		rn.SetWorkers(workers)
		return rn.Run(32, func(_ int, r *rng.Source) float64 {
			s, _ := CoverTime(g, 0, 1<<20, r)
			return float64(s)
		})
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results depend on worker count at trial %d", i)
		}
	}
}
