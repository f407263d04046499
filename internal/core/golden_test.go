package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

// goldenDigests pins the complete output of every process. Each digest
// folds, over every configuration goldenDigest enumerates, every Result
// field, the continuous-time clock bits, any error text and the source's
// next draw after the run. The other bit-identity suites compare two paths
// of one build (dense against sparse, recording against fused); these
// digests compare a build against the commit that recorded them, so a
// refactor that changes any sample path of any process fails here. Update a
// digest only together with a deliberate, documented change to that
// process's stream. The batched lane has no digests of its own: under the
// one stream law it must reproduce the scalar Sequential loop, which
// TestGoldenDigests checks on every graph set (see goldenLane).
var goldenDigests = map[string]string{
	"sequential":           "b9e38219b64545d3",
	"parallel":             "c4c1ee94b2be5bc9",
	"uniform":              "6e9a557583eefc0f",
	"ct-uniform":           "fc3d1637e843e3e1",
	"ct-sequential":        "72572a165327b78f",
	"sequential-geom":      "57388fc0138f5e7f",
	"sequential-threshold": "e5384f46aa09a039",
	"capacity":             "6e56b565f3339851",
	"capacity-parallel":    "34d3360a95243387",
}

// goldenTorusDigests pins every process over goldenTori the same way, so
// the implicit torus kernel's walks, dense and sparse, are held to the
// commit that recorded them too.
var goldenTorusDigests = map[string]string{
	"sequential":           "5cc54241993cfec9",
	"parallel":             "31827493d7beb1d5",
	"uniform":              "aa300c3479de26b7",
	"ct-uniform":           "e2c6f89d59c47dd5",
	"ct-sequential":        "a7fdc7c19a857139",
	"sequential-geom":      "98d3d3cb6b8e2607",
	"sequential-threshold": "05fab01ae9f5b1d1",
	"capacity":             "091c4795e9d57a27",
	"capacity-parallel":    "fdadc855538513bf",
}

// goldenHypercubeDigests pins every process over goldenHypercubes, so the
// hypercube kernel's Step and fused walk are held to the commit that
// recorded them too.
var goldenHypercubeDigests = map[string]string{
	"sequential":           "f0061be7453e3207",
	"parallel":             "0cac625dd34820c9",
	"uniform":              "fa51f6357e90580f",
	"ct-uniform":           "8c673dd769744f6b",
	"ct-sequential":        "5bace858ac61a14b",
	"sequential-geom":      "3c263a3860fc2ceb",
	"sequential-threshold": "077f3f866deb2c39",
	"capacity":             "1e0cda065838fc8f",
	"capacity-parallel":    "44ddfaf65894e14d",
}

// goldenWeightedDigests pins every process over goldenWeighted, so the
// alias kernels' Step and fused walk are held to the commit that recorded
// them too, and their StepLane, through the lane, to the fused walk.
var goldenWeightedDigests = map[string]string{
	"sequential":           "c29da33a0961a5eb",
	"parallel":             "f8441e5a33d716fd",
	"uniform":              "6b42a9be5abd5b2d",
	"ct-uniform":           "46e3d910c3be1f15",
	"ct-sequential":        "b7cc906e508a080b",
	"sequential-geom":      "b38855c5c9e39005",
	"sequential-threshold": "5108e46e41c77f7b",
	"capacity":             "17c748174bccce89",
	"capacity-parallel":    "b2a97f728e6afc41",
}

// goldenImplicitDigests pins every process over goldenImplicit, so the
// path, circulant and random-regular kernels, which no other map reaches,
// are held to the commit that recorded them too.
var goldenImplicitDigests = map[string]string{
	"sequential":           "6bbfd3529f4612f1",
	"parallel":             "b456377d2e6688e5",
	"uniform":              "18a0c45e150e1099",
	"ct-uniform":           "3a2b849397c9c053",
	"ct-sequential":        "8fc2ce96b69b0d77",
	"sequential-geom":      "ae3d8fe0cdf93bbb",
	"sequential-threshold": "073ff49d06acfb8d",
	"capacity":             "96c00287481a0c17",
	"capacity-parallel":    "5bc025590f6e2899",
}

// goldenRule is the custom settle rule of the golden option sets: it
// rejects some vacant standings early in a walk and accepts every one from
// step 3 on, so vetoes and acceptances both occur.
func goldenRule(v int32, step int64) bool { return step >= 3 || v%4 == 1 }

type goldenOpt struct {
	name string
	opt  func(n int) Options
}

// goldenOptions lists the option sets every process runs under. The
// Capacities vector depends on the graph size, hence the constructor.
func goldenOptions() []goldenOpt {
	caps := func(n int) []int {
		c := make([]int, n)
		for v := range c {
			c[v] = 1 + v%3
		}
		return c
	}
	fixed := func(o Options) func(int) Options { return func(int) Options { return o } }
	return []goldenOpt{
		{"default", fixed(Options{})},
		{"lazy", fixed(Options{Lazy: true})},
		{"record", fixed(Options{Record: true})},
		{"record-lazy", fixed(Options{Record: true, Lazy: true})},
		{"random-origins-7", fixed(Options{RandomOrigins: true, Particles: 7})},
		{"particles-3", fixed(Options{Particles: 3})},
		{"truncated", fixed(Options{MaxSteps: 25})},
		{"truncated-record", fixed(Options{MaxSteps: 25, Record: true})},
		{"random-priority", fixed(Options{RandomPriority: true})},
		{"param-0.3", fixed(Options{SettleParam: 0.3})},
		{"param-3", fixed(Options{SettleParam: 3})},
		{"capacity-3", fixed(Options{Capacity: 3})},
		{"capacity-3-record", fixed(Options{Capacity: 3, Record: true})},
		{"capacities", func(n int) Options { return Options{Capacities: caps(n)} }},
		{"capacities-record", func(n int) Options { return Options{Capacities: caps(n), Record: true} }},
		{"rule", fixed(Options{Rule: goldenRule})},
		{"rule-record", fixed(Options{Rule: goldenRule, Record: true})},
		{"rule-lazy-truncated", fixed(Options{Rule: goldenRule, Lazy: true, MaxSteps: 25})},
	}
}

func goldenGraphs() []graph.Graph {
	return []graph.Graph{
		graph.Complete(20),
		graph.Cycle(16),
		graph.Grid([]int{4, 4}, true),
		graph.CliqueWithHair(12),
		graph.Star(9),
	}
}

// goldenTori lists the implicit tori of goldenTorusDigests: a plain 2-D
// torus, a 3-D one, one with a side-1 dimension, and one whose every
// coordinate sits next to a wrap.
func goldenTori() []graph.Graph {
	var gs []graph.Graph
	for _, sides := range [][]int{{5, 7}, {4, 3, 5}, {6, 1, 4}, {3, 3}} {
		g, err := graph.ImplicitTorus(sides)
		if err != nil {
			panic(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// goldenHypercubes lists the implicit hypercubes of
// goldenHypercubeDigests: Q_1, whose walk moves without a draw, and Q_4
// and Q_7, whose selects read one and both bytes of v.
func goldenHypercubes() []graph.Graph {
	return []graph.Graph{graph.ImplicitHypercube(1), graph.ImplicitHypercube(4), graph.ImplicitHypercube(7)}
}

// goldenWeighted lists the weighted graphs of goldenWeightedDigests:
// weighted cliques on 2 (whose degree-1 moves draw nothing), 3, 6 and 9
// vertices, the last with a negative exponent, and a weighted cycle.
func goldenWeighted() []graph.Graph {
	var gs []graph.Graph
	for _, c := range []struct {
		n     int
		alpha float64
	}{{2, 1}, {3, 1}, {6, 1}, {9, -0.5}} {
		g, err := graph.WeightedComplete(c.n, c.alpha)
		if err != nil {
			panic(err)
		}
		gs = append(gs, g)
	}
	g, err := graph.WeightedCycle(7, 3)
	if err != nil {
		panic(err)
	}
	return append(gs, g)
}

// goldenImplicit lists the graphs of goldenImplicitDigests: an implicit
// and a CSR-built path, whose endpoints move without a draw, a circulant
// with an offset of n/2 (one neighbour for it, degree 3) and one with two
// full offsets, and implicit random-regular graphs of degree 4 and 2.
func goldenImplicit() []graph.Graph {
	c1, err := graph.ImplicitCirculant(8, []int{1, 4})
	if err != nil {
		panic(err)
	}
	c2, err := graph.ImplicitCirculant(12, []int{2, 3})
	if err != nil {
		panic(err)
	}
	r1, err := graph.ImplicitRandomRegular(10, 4, 5)
	if err != nil {
		panic(err)
	}
	r2, err := graph.ImplicitRandomRegular(9, 2, 1)
	if err != nil {
		panic(err)
	}
	return []graph.Graph{graph.ImplicitPath(7), graph.Path(5), c1, c2, r1, r2}
}

// goldenHash writes fixed-width little-endian words, so the digest is the
// same on 32- and 64-bit platforms.
type goldenHash struct{ h hash.Hash64 }

func (g goldenHash) i64(x int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(x))
	g.h.Write(b[:])
}

func (g goldenHash) str(s string) {
	g.i64(int64(len(s)))
	g.h.Write([]byte(s))
}

func (g goldenHash) i64s(xs []int64) {
	g.i64(int64(len(xs)))
	for _, x := range xs {
		g.i64(x)
	}
}

func (g goldenHash) i32s(xs []int32) {
	g.i64(int64(len(xs)))
	for _, x := range xs {
		g.i64(int64(x))
	}
}

func (g goldenHash) err(err error) {
	if err == nil {
		g.str("")
		return
	}
	g.str("err: " + err.Error())
}

func (g goldenHash) result(res *Result) {
	g.i64(res.Dispersion)
	g.i64(res.TotalSteps)
	g.i64s(res.Steps)
	g.i32s(res.SettledAt)
	g.i32s(res.SettleOrder)
	g.i64s(res.SettleClock)
	if res.Trajectories == nil {
		g.i64(-1)
	} else {
		g.i64(int64(len(res.Trajectories)))
		for _, traj := range res.Trajectories {
			g.i32s(traj)
		}
	}
	if res.Truncated {
		g.i64(1)
	} else {
		g.i64(0)
	}
	g.i64(int64(res.Capacity))
}

func (g goldenHash) ct(res *CTResult) {
	g.result(&res.Result)
	g.i64(int64(math.Float64bits(res.Time)))
	g.i64(int64(len(res.SettleTimes)))
	for _, t := range res.SettleTimes {
		g.i64(int64(math.Float64bits(t)))
	}
}

// goldenRun runs one process under one configuration and folds its output
// into h.
type goldenRun func(h goldenHash, g graph.Graph, opt Options, seed uint64, s *Scratch)

func goldenDiscrete(into func(graph.Graph, int, Options, *rng.Source, *Scratch, *Result) error) goldenRun {
	return func(h goldenHash, g graph.Graph, opt Options, seed uint64, s *Scratch) {
		r := rng.New(seed)
		var res Result
		h.err(into(g, 0, opt, r, s, &res))
		h.result(&res)
		h.i64(int64(r.Uint64()))
	}
}

func goldenContinuous(into func(graph.Graph, int, Options, *rng.Source, *Scratch, *CTResult) error) goldenRun {
	return func(h goldenHash, g graph.Graph, opt Options, seed uint64, s *Scratch) {
		r := rng.New(seed)
		var res CTResult
		h.err(into(g, 0, opt, r, s, &res))
		h.ct(&res)
		h.i64(int64(r.Uint64()))
	}
}

// goldenLane runs six trials through a width-4 lane, so slots retire and
// rehost, or, when scalar is set, the same six seeds one after another
// through the scalar Sequential loop: the two runs must fold to one
// digest. The lane rejects the Record and Rule option sets
// (TestLaneErrors), so both runs skip them.
func goldenLane(scalar bool) goldenRun {
	return func(h goldenHash, g graph.Graph, opt Options, seed uint64, s *Scratch) {
		if opt.Record || opt.Rule != nil {
			return
		}
		src := rng.New(seed)
		seeds := make([]uint64, 6)
		outs := make([]*Result, len(seeds))
		for i := range seeds {
			seeds[i] = src.Uint64()
			outs[i] = new(Result)
		}
		var err error
		if scalar {
			// Only the law's validation can fail, and it fails every
			// trial alike, before writing a result.
			for i := 0; i < len(seeds) && err == nil; i++ {
				err = SequentialInto(g, 0, opt, rng.New(seeds[i]), s, outs[i])
			}
		} else {
			opt.Batch = 4
			err = RunLane(g, 0, opt, LaneStandard, seeds, s, outs)
		}
		h.err(err)
		for _, res := range outs {
			h.result(res)
		}
	}
}

type goldenProcess struct {
	name string
	run  goldenRun
}

func goldenProcesses() []goldenProcess {
	return []goldenProcess{
		{"sequential", goldenDiscrete(SequentialInto)},
		{"parallel", goldenDiscrete(ParallelInto)},
		{"uniform", goldenDiscrete(UniformInto)},
		{"ct-uniform", goldenContinuous(CTUniformInto)},
		{"ct-sequential", goldenContinuous(CTSequentialInto)},
		{"sequential-geom", goldenDiscrete(SequentialGeomInto)},
		{"sequential-threshold", goldenDiscrete(SequentialThresholdInto)},
		{"capacity", goldenDiscrete(CapacitySequentialInto)},
		{"capacity-parallel", goldenDiscrete(CapacityParallelInto)},
	}
}

// goldenDigest runs p over every graph, occupancy backend, option set and
// seed, and returns the hex digest of all outputs. Each (graph, backend)
// pair threads one Scratch through all its runs, so reuse is covered too.
func goldenDigest(p goldenProcess, graphs []graph.Graph) string {
	h := goldenHash{fnv.New64a()}
	for _, g := range graphs {
		for _, sparse := range []bool{false, true} {
			s := NewScratch()
			s.forceSparse = sparse
			for _, o := range goldenOptions() {
				for seed := uint64(1); seed <= 3; seed++ {
					h.str(fmt.Sprintf("%s/%v/%s/%d", g.Name(), sparse, o.name, seed))
					p.run(h, g, o.opt(g.N()), seed, s)
				}
			}
		}
	}
	return fmt.Sprintf("%016x", h.h.Sum64())
}

// goldenSets pairs each pinned digest map with its graphs.
func goldenSets() []struct {
	name    string
	digests map[string]string
	graphs  []graph.Graph
} {
	return []struct {
		name    string
		digests map[string]string
		graphs  []graph.Graph
	}{
		{"the golden graphs", goldenDigests, goldenGraphs()},
		{"tori", goldenTorusDigests, goldenTori()},
		{"hypercubes", goldenHypercubeDigests, goldenHypercubes()},
		{"weighted graphs", goldenWeightedDigests, goldenWeighted()},
		{"paths, circulants and random-regular graphs", goldenImplicitDigests, goldenImplicit()},
	}
}

// TestGoldenDigests checks every process's output against its pinned
// digests, and the lane's output against the scalar Sequential loop's:
// RunLane steps its lane superstep on every kernel of the five sets, the
// shared stepLane loop of the kernels that compute their neighbour among
// them. The lane runs only the standard law; a batched job under any
// other law is its unbatched twin.
func TestGoldenDigests(t *testing.T) {
	for _, set := range goldenSets() {
		for _, p := range goldenProcesses() {
			if got, want := goldenDigest(p, set.graphs), set.digests[p.name]; got != want {
				t.Errorf("%s on %s: digest %s, pinned %s", p.name, set.name, got, want)
			}
		}
		lane := goldenDigest(goldenProcess{"lane", goldenLane(false)}, set.graphs)
		scalar := goldenDigest(goldenProcess{"scalar", goldenLane(true)}, set.graphs)
		if lane != scalar {
			t.Errorf("lane on %s: digest %s, scalar loop's %s", set.name, lane, scalar)
		}
	}
}
