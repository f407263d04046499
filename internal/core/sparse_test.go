package core

import (
	"fmt"
	"reflect"
	"testing"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// intoRunner adapts every *Into process to a common shape so the
// dense/sparse twin runs below can drive them uniformly.
type intoRunner func(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error

func allIntoProcesses() map[string]intoRunner {
	return map[string]intoRunner{
		"sequential": SequentialInto,
		"parallel":   ParallelInto,
		"uniform":    UniformInto,
		"geom":       SequentialGeomInto,
		"threshold":  SequentialThresholdInto,
		"cap-seq":    CapacitySequentialInto,
		"cap-par":    CapacityParallelInto,
		"ct-uniform": func(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
			var ct CTResult
			if err := CTUniformInto(g, origin, opt, r, s, &ct); err != nil {
				return err
			}
			*res = ct.Result
			return nil
		},
		"ct-sequential": func(g graph.Graph, origin int, opt Options, r *rng.Source, s *Scratch, res *Result) error {
			var ct CTResult
			if err := CTSequentialInto(g, origin, opt, r, s, &ct); err != nil {
				return err
			}
			*res = ct.Result
			return nil
		},
	}
}

// TestSparseOccupancyBitIdentity pins the sparse occupancy backend
// draw-for-draw and result-for-result identical to the dense epoch map:
// every registered process under every golden option set, on graphs small
// enough to check exhaustively, forced through the hash table via the
// forceSparse hook. The graphs cover the CSR kernels, the implicit torus
// kernel and two implicit kernels without a fused sparse walk; the golden
// MaxSteps of 25 cuts a walk short on every one of them. The trailing RNG
// probe catches any divergence in the number of draws consumed.
func TestSparseOccupancyBitIdentity(t *testing.T) {
	circulant, err := graph.ImplicitCirculant(12, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	rregular, err := graph.ImplicitRandomRegular(14, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []graph.Graph{
		graph.Complete(20),
		graph.Cycle(16),
		graph.Grid([]int{4, 4}, true),
		graph.CliqueWithHair(12),
		circulant,
		rregular,
	}
	graphs = append(graphs, goldenTori()...)
	for pname, run := range allIntoProcesses() {
		for _, g := range graphs {
			for _, o := range goldenOptions() {
				var dense, sparse Result
				sd, ss := NewScratch(), NewScratch()
				ss.forceSparse = true
				rd, rs := rng.New(404), rng.New(404)
				errD := run(g, 0, o.opt(g.N()), rd, sd, &dense)
				errS := run(g, 0, o.opt(g.N()), rs, ss, &sparse)
				if fmt.Sprint(errD) != fmt.Sprint(errS) {
					t.Fatalf("%s/%s on %s: dense error %v, sparse error %v", pname, o.name, g.Name(), errD, errS)
				}
				if errS == nil && !ss.sparse {
					t.Fatalf("%s/%s on %s: forceSparse did not engage", pname, o.name, g.Name())
				}
				if !reflect.DeepEqual(dense, sparse) {
					t.Errorf("%s/%s on %s: dense and sparse results differ\ndense:  %+v\nsparse: %+v",
						pname, o.name, g.Name(), dense, sparse)
				}
				if rd.Uint64() != rs.Uint64() {
					t.Errorf("%s/%s on %s: dense and sparse consumed different draw counts",
						pname, o.name, g.Name())
				}
			}
		}
	}
}

// TestSparseScratchReuse checks that one Scratch can alternate between
// sparse and dense runs (and between graphs of different sizes) without
// stale occupancy leaking across runs in either direction.
func TestSparseScratchReuse(t *testing.T) {
	s := NewScratch()
	g1, g2 := graph.Complete(24), graph.Cycle(10)
	for trial := 0; trial < 300; trial++ {
		s.forceSparse = trial%2 == 0
		g := g1
		if trial%3 == 0 {
			g = g2
		}
		var res Result
		if err := SequentialInto(g, 0, Options{}, rng.New(uint64(trial+1)), s, &res); err != nil {
			t.Fatal(err)
		}
		if err := checkPerfectDispersion(&res, g.N()); err != nil {
			t.Fatalf("trial %d on %s (sparse=%v): %v", trial, g.Name(), s.forceSparse, err)
		}
	}
}

// checkPerfectDispersion verifies an untruncated full run settled exactly
// one particle on every vertex.
func checkPerfectDispersion(res *Result, n int) error {
	seen := make(map[int32]bool, n)
	for _, v := range res.SettledAt {
		if seen[v] {
			return fmt.Errorf("vertex %d settled twice", v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		return fmt.Errorf("only %d of %d vertices settled", len(seen), n)
	}
	return nil
}

// TestSparseOccupancyEligibility pins the automatic dense/sparse cutover.
func TestSparseOccupancyEligibility(t *testing.T) {
	cases := []struct {
		n, k int
		want bool
	}{
		{1 << 20, 1 << 17, true},        // exactly at both thresholds
		{1 << 20, 1<<17 + 1, false},     // one particle too dense
		{1<<20 - 1, 1 << 10, false},     // one vertex too small
		{1 << 24, 4096, true},           // the million-vertex target shape
		{1 << 24, 1 << 24, false},       // full dispersion stays dense
		{1 << 10, 1, false},             // small graphs always dense
		{1 << 21, 2 * (1 << 21), false}, // capacity runs with k > n stay dense
	}
	for _, c := range cases {
		if got := sparseOccupancy(c.n, c.k); got != c.want {
			t.Errorf("sparseOccupancy(%d, %d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}
