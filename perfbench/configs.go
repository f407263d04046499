package main

import "dispersion/internal/graph"

// Workload names, as BENCHMARK.json declares them.
const (
	wlEngineCached = "engine-cached"
	wlEngineLarge  = "engine-large"
	wlService      = "service"
)

var workloads = []string{wlEngineCached, wlEngineLarge, wlService}

// engineWorkers is Engine.Workers on both engine workloads.
const engineWorkers = 2

// Graph backends, as graphspec routes the families below.
const (
	implicitBackend = "implicit" // arithmetic kernel, no tables
	csrBackend      = "csr"
	weightedBackend = "weighted" // CSR plus alias tables
)

// graphDef is one graph the benchmark walks on: its key, its spec, and
// the vertex the kernel probe leaves vacant (an antipode of origin 0 where
// the family has one).
type graphDef struct {
	key, spec string
	far       int32
}

var graphDefs = []graphDef{
	{"complete512", "complete:512", 511},
	{"complete256", "complete:256", 255},
	{"torus8x8x8", "torus:8x8x8", 4 + 8*4 + 64*4},
	{"cycle128", "cycle:128", 64},
	{"cycle1024", "cycle:1024", 512},
	{"hypercube9", "hypercube:9", 511},
	{"hypercube16", "hypercube:16", 65535},
	{"wcomplete1024", "wcomplete:1024,1", 1023},
	{"torus1024x1024", "torus:1024x1024", 512 + 1024*512},
}

// backendOf names the backend graphspec built g with.
func backendOf(g graph.Graph) string {
	switch g.(type) {
	case *graph.WeightedCSR:
		return weightedBackend
	case *graph.CSR:
		return csrBackend
	}
	return implicitBackend
}

// laneGraphs are the graphs whose StepLane cost is measured at B=64.
var laneGraphs = []string{"cycle1024", "wcomplete1024"}

// buildGraphs are the graphs whose graphspec.Build time is measured.
var buildGraphs = []graphDef{
	{key: "hypercube9", spec: "hypercube:9"},
	{key: "hypercube16", spec: "hypercube:16"},
	{key: "wcomplete512", spec: "wcomplete:512,1"},
	{key: "wcomplete1024", spec: "wcomplete:1024,1"},
}

func graphByKey(key string) graphDef {
	for _, g := range graphDefs {
		if g.key == key {
			return g
		}
	}
	panic("perfbench: unknown graph " + key)
}

// config is one engine configuration. trials is the block an Engine.Run
// call covers; it is fixed so that every configuration of a workload takes
// a similar share of the workload's wall time on the machine the table was
// calibrated on, so a gain on one configuration moves the workload total
// by that configuration's share.
type config struct {
	name      string
	workload  string
	process   string
	graph     string // graphDefs key
	particles int
	batch     int
	trials    int
	theorem   bool // mean total steps faces the Theorem 4.1 check
	why       string
}

var configs = []config{
	{name: "seq-complete512", workload: wlEngineCached, process: "sequential", graph: "complete512", trials: 17000, theorem: true,
		why: "closed-form kernel; Theorem 4.1 check"},
	{name: "par-complete512", workload: wlEngineCached, process: "parallel", graph: "complete512", trials: 8800, theorem: true,
		why: "round-based Parallel; Theorem 4.1 check"},
	{name: "cappar-complete512", workload: wlEngineCached, process: "capacity-parallel", graph: "complete512", trials: 6500,
		why: "capacity-parallel, +10% regression in the ROADMAP"},
	{name: "seq-complete512-k128", workload: wlEngineCached, process: "sequential", graph: "complete512", particles: 128, trials: 100000,
		why: "microsecond trials: per-trial engine and delivery overhead dominates"},
	{name: "seq-torus8x8x8", workload: wlEngineCached, process: "sequential", graph: "torus8x8x8", trials: 1000,
		why: "implicit torus kernel, 4.0x regression in the ROADMAP"},
	{name: "cap-torus8x8x8", workload: wlEngineCached, process: "capacity", graph: "torus8x8x8", trials: 600,
		why: "capacity law on the torus, 6.3x regression in the ROADMAP"},
	{name: "seq-cycle128", workload: wlEngineCached, process: "sequential", graph: "cycle128", trials: 560,
		why: "long walks on a tiny graph, +8% regression in the ROADMAP"},
	{name: "seq-hypercube9", workload: wlEngineCached, process: "sequential", graph: "hypercube9", trials: 10000,
		why: "CSR offsets-free regular kernel"},
	{name: "ctu-complete256", workload: wlEngineCached, process: "ct-uniform", graph: "complete256", trials: 5400,
		why: "continuous-time event heap"},
	{name: "seq-cycle1024-k192", workload: wlEngineCached, process: "sequential", graph: "cycle1024", particles: 192, trials: 160,
		why: "scalar twin of seq-cycle1024-k192-b64"},
	// Batch 64 loses on this cache-resident cycle: it was 1.22x slower than
	// its scalar twin in the committed trajectory (4.18 ms against 3.42 ms a
	// trial) and 1.45x slower in a quick lab run on a 2-vCPU VM. It stays in
	// the table as the losing side of the batch-width choice. 128 trials is
	// two full lanes, one per worker, the smallest block that keeps both
	// workers busy; the other trial counts are sized to match its time.
	{name: "seq-cycle1024-k192-b64", workload: wlEngineCached, process: "sequential", graph: "cycle1024", particles: 192, batch: 64, trials: 128,
		why: "the batched lane where it loses (1.22x slower than scalar in the trajectory)"},
	{name: "seq-hypercube16", workload: wlEngineLarge, process: "sequential", graph: "hypercube16", trials: 60,
		why: "n=65536, implicit bit-select (its CSR twin is 4 MiB)"},
	{name: "seq-wcomplete1024", workload: wlEngineLarge, process: "sequential", graph: "wcomplete1024", trials: 40,
		why: "scalar alias walk over 24 MiB of tables"},
	// Batch 64 wins here: 2.62x faster than the scalar twin in the committed
	// trajectory (10.3 ms against 26.9 ms a trial), because the lane
	// overlaps the cache misses of independent trials.
	{name: "seq-wcomplete1024-b64", workload: wlEngineLarge, process: "sequential", graph: "wcomplete1024", batch: 64, trials: 128,
		why: "the batched lane where it wins (2.62x faster than scalar in the trajectory)"},
	{name: "seq-torus1024x1024-k4096", workload: wlEngineLarge, process: "sequential", graph: "torus1024x1024", particles: 4096, trials: 40,
		why: "sparse occupancy, n=2^20"},
}

// configsOf returns the workload's configurations in table order.
func configsOf(workload string) []config {
	var out []config
	for _, c := range configs {
		if c.workload == workload {
			out = append(out, c)
		}
	}
	return out
}

// workingSet is the computed memory a configuration's trials touch: the
// per-worker occupancy state, the graph's kernel tables (shared), and one
// trial's result arrays, of which the engine keeps up to 4 per worker in
// flight.
type workingSet struct {
	Config         string `json:"config"`
	Why            string `json:"why"`
	Graph          string `json:"graph"`
	OccupancyBytes int64  `json:"occupancy_bytes"`
	TableBytes     int64  `json:"table_bytes"`
	ResultBytes    int64  `json:"result_bytes"`
	TotalBytes     int64  `json:"total_bytes"`
	ExceedsL2      bool   `json:"exceeds_l2"`
}

// resultBytesPerParticle is Steps (int64), SettledAt and SettleOrder
// (int32) and SettleClock (int64); the continuous processes add
// SettleTimes (float64).
const resultBytesPerParticle = 8 + 4 + 4 + 8

// computeWorkingSet derives a configuration's working set from its built
// graph and its options. The graph gives n, the backend and the adjacency
// slots; the occupancy layout follows internal/core (dense epoch bytes,
// capacity count words, the sparse hash table of n >= 2^20 and 8k <= n,
// lane rows), which is not observable from outside; the tables follow
// internal/graph (CSR offsets and adjacency; a weighted slot adds its
// weight, alias probability and alias vertex).
func computeWorkingSet(c config, g graph.Graph, l2 int64) workingSet {
	n := int64(g.N())
	k := int64(c.particles)
	if k == 0 {
		k = n
		if c.process == "capacity" || c.process == "capacity-parallel" {
			k = 2 * n
		}
	}
	var occ int64
	switch {
	case c.batch > 0:
		occ = n * int64(c.batch)
	case n >= 1<<20 && k <= n/8:
		size := int64(16)
		for size < 4*k {
			size <<= 1
		}
		occ = 8 * size
	case c.process == "capacity" || c.process == "capacity-parallel":
		occ = n + 4*n
	default:
		occ = n
	}
	var tables int64
	if backend := backendOf(g); backend != implicitBackend {
		perSlot := int64(4)
		if backend == weightedBackend {
			perSlot += 8 + 8 + 4
		}
		var slots int64
		for v := range g.N() {
			slots += int64(g.Degree(v))
		}
		tables = 4*(n+1) + slots*perSlot
	}
	per := int64(resultBytesPerParticle)
	if c.process == "ct-uniform" {
		per += 8
	}
	res := per * k
	inFlight := int64(4 * engineWorkers)
	if c.batch > 0 {
		inFlight = int64(c.batch * engineWorkers)
	}
	total := engineWorkers*occ + tables + inFlight*res
	return workingSet{
		Config: c.name, Why: c.why, Graph: c.graph,
		OccupancyBytes: occ, TableBytes: tables, ResultBytes: res,
		TotalBytes: total, ExceedsL2: l2 > 0 && total > l2,
	}
}
