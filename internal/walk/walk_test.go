package walk

import (
	"math"
	"testing"

	"dispersion/internal/graph"
	"dispersion/internal/markov"
	"dispersion/internal/rng"
)

func TestStepStaysOnNeighbors(t *testing.T) {
	g := graph.Lollipop(13)
	r := rng.New(1)
	v := int32(0)
	for i := 0; i < 10000; i++ {
		u := Step(g, v, r)
		if !g.HasEdge(int(v), int(u)) {
			t.Fatalf("step %d -> %d is not an edge", v, u)
		}
		v = u
	}
}

func TestLazyStepHalfStays(t *testing.T) {
	g := graph.Cycle(8)
	r := rng.New(2)
	stays := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if LazyStep(g, 3, r) == 3 {
			stays++
		}
	}
	if math.Abs(float64(stays)-trials/2) > 5*math.Sqrt(trials)/2 {
		t.Fatalf("lazy walk stayed %d of %d times, want ~half", stays, trials)
	}
}

func TestStepUniformOverNeighbors(t *testing.T) {
	g := graph.Star(5) // centre 0 with 4 leaves
	r := rng.New(3)
	counts := map[int32]int{}
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[Step(g, 0, r)]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)-trials/4) > 5*math.Sqrt(trials)*0.5 {
			t.Errorf("neighbour %d drawn %d times, want ~%d", v, c, trials/4)
		}
	}
}

func TestTrajectoryShape(t *testing.T) {
	g := graph.Path(6)
	traj := Trajectory(g, 2, 50, rng.New(4))
	if len(traj) != 51 || traj[0] != 2 {
		t.Fatalf("trajectory len %d start %d", len(traj), traj[0])
	}
	for i := 1; i < len(traj); i++ {
		if !g.HasEdge(int(traj[i-1]), int(traj[i])) {
			t.Fatalf("trajectory step %d invalid", i)
		}
	}
}

func TestHitTimeMatchesAnalytic(t *testing.T) {
	g := graph.Path(10)
	hit, err := markov.NewHitting(g)
	if err != nil {
		t.Fatal(err)
	}
	want := hit.Hit(0, 5) // = 25
	rn := NewRunner(7, 1)
	res := rn.Run(4000, func(_ int, r *rng.Source) float64 {
		steps, ok := HitTime(g, 0, 5, 1<<20, r)
		if !ok {
			t.Error("hit time capped")
		}
		return float64(steps)
	})
	var sum float64
	for _, v := range res {
		sum += v
	}
	mean := sum / float64(len(res))
	if math.Abs(mean-want) > 0.08*want {
		t.Errorf("simulated hit time %.2f, analytic %.2f", mean, want)
	}
}

func TestHitSetTime(t *testing.T) {
	g := graph.Cycle(12)
	inSet := make([]bool, 12)
	inSet[6] = true
	inSet[3] = true
	steps, ok := HitSetTime(g, 0, inSet, 1<<20, rng.New(5))
	if !ok || steps < 1 {
		t.Fatalf("HitSetTime = %d ok=%v", steps, ok)
	}
	// Simulated mean vs dense solve.
	hs, err := markov.HitSetFrom(g, []int{3, 6}, false)
	if err != nil {
		t.Fatal(err)
	}
	rn := NewRunner(9, 2)
	res := rn.Run(4000, func(_ int, r *rng.Source) float64 {
		s, _ := HitSetTime(g, 0, inSet, 1<<20, r)
		return float64(s)
	})
	var sum float64
	for _, v := range res {
		sum += v
	}
	mean := sum / float64(len(res))
	if math.Abs(mean-hs[0]) > 0.1*hs[0]+0.2 {
		t.Errorf("simulated set hit %.2f, analytic %.2f", mean, hs[0])
	}
}

func TestHitTimeCap(t *testing.T) {
	g := graph.Path(50)
	steps, ok := HitTime(g, 0, 49, 10, rng.New(6))
	if ok || steps != 10 {
		t.Fatalf("cap not honoured: steps=%d ok=%v", steps, ok)
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

func TestMultiCoverFasterThanSingle(t *testing.T) {
	// k walks cover at least as fast as one (speed-up is the point of
	// multi-walk covering; the paper contrasts it with dispersion).
	g := graph.Cycle(32)
	rn := NewRunner(21, 8)
	single := rn.Run(300, func(_ int, r *rng.Source) float64 {
		s, _ := CoverTime(g, 0, 1<<30, r)
		return float64(s)
	})
	rn2 := NewRunner(21, 9)
	multi := rn2.Run(300, func(_ int, r *rng.Source) float64 {
		s, _ := MultiCoverTime(g, 0, 8, 1<<30, r)
		return float64(s)
	})
	var s1, s8 float64
	for i := range single {
		s1 += single[i]
		s8 += multi[i]
	}
	if s8 >= s1/2 {
		t.Errorf("8 walks cover in %.0f rounds vs single %.0f steps: no speed-up", s8/300, s1/300)
	}
}

func TestMultiCoverSingleWalkMatchesCoverTime(t *testing.T) {
	// k = 1 must agree with CoverTime in distribution; compare means.
	g := graph.Complete(16)
	rn := NewRunner(22, 10)
	a := rn.Run(2000, func(_ int, r *rng.Source) float64 {
		s, _ := CoverTime(g, 0, 1<<30, r)
		return float64(s)
	})
	rn2 := NewRunner(22, 11)
	b := rn2.Run(2000, func(_ int, r *rng.Source) float64 {
		s, _ := MultiCoverTime(g, 0, 1, 1<<30, r)
		return float64(s)
	})
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(len(a))
	mb /= float64(len(b))
	if math.Abs(ma-mb) > 0.1*ma {
		t.Errorf("k=1 multi-cover mean %.1f vs cover %.1f", mb, ma)
	}
}

func TestMultiCoverCap(t *testing.T) {
	g := graph.Path(64)
	rounds, ok := MultiCoverTime(g, 0, 2, 5, rng.New(1))
	if ok || rounds != 5 {
		t.Fatalf("cap not honoured: %d %v", rounds, ok)
	}
}

func TestRunnerDeterminism(t *testing.T) {
	g := graph.Cycle(16)
	run := func() []float64 {
		rn := NewRunner(42, 9)
		return rn.Run(64, func(_ int, r *rng.Source) float64 {
			s, _ := HitTime(g, 0, 8, 1<<20, r)
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
			s, _ := HitTime(g, 0, 11, 1<<20, r)
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
