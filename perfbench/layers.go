package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"dispersion"
	"dispersion/agg"
	"dispersion/graphspec"
	"dispersion/internal/core"
	"dispersion/internal/graph"
	"dispersion/internal/rng"
	"dispersion/internal/walk"
	"dispersion/server"
	"dispersion/sink"
)

// The layer probes time calls into each module's public functions from
// outside, one span per probe call. Each reports a per-operation cost.

// sinkU64 keeps measured loops from being optimized away.
var sinkU64 uint64

// timed runs f and records it as a layer span.
func timed(tr *tracer, name string, f func()) time.Duration {
	id := tr.begin(name, 0, "")
	t0 := time.Now()
	f()
	d := time.Since(t0)
	tr.end(id)
	return d
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// rngLayer measures internal/rng: scalar draws, bounded draws, bulk fill
// and the lane source.
func rngLayer(m metrics, tr *tracer) {
	const n = 1 << 24
	r := rng.New(1)
	var x uint64
	d := timed(tr, "layer.rng.uint64", func() {
		for range n {
			x ^= r.Uint64()
		}
	})
	m.set("rng.uint64_ns", nsPer(d, n), "ns")
	d = timed(tr, "layer.rng.int31n", func() {
		for range n {
			x += uint64(r.Int31n(511))
		}
	})
	m.set("rng.int31n_ns", nsPer(d, n), "ns")
	buf := make([]uint64, 1024)
	d = timed(tr, "layer.rng.fill", func() {
		for range n / len(buf) {
			r.FillUint64(buf)
			x ^= buf[0]
		}
	})
	m.set("rng.fill_ns_per_word", nsPer(d, n), "ns")
	var lane rng.LaneSource
	lane.Resize(64)
	for j := range 64 {
		lane.Seed(j, uint64(j))
	}
	d = timed(tr, "layer.rng.lane", func() {
		for i := range n {
			x ^= lane.Uint64(i & 63)
		}
	})
	m.set("rng.lane_uint64_ns", nsPer(d, n), "ns")
	sinkU64 = x
}

// graphCache memoizes graphspec.Build. A deterministic family is built
// once whatever the build seed; a random family once per seed.
type graphCache map[string]dispersion.Graph

func (gc graphCache) get(spec string, seed uint64) (dispersion.Graph, error) {
	s, err := graphspec.Parse(spec)
	if err != nil {
		return nil, err
	}
	key := spec
	if s.Random() {
		key += "@" + strconv.FormatUint(seed, 10)
	}
	if g, ok := gc[key]; ok {
		return g, nil
	}
	g, err := s.Build(seed)
	if err != nil {
		return nil, err
	}
	gc[key] = g
	return g, nil
}

// kernelLayer times Kernel().WalkUntilVacant on a fixed occupancy where
// every vertex but one far vertex is occupied; a walk that finds the
// vacancy restarts from the origin. It returns ns/step per graph key.
func kernelLayer(m metrics, gc graphCache, seed uint64, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	for _, gd := range graphDefs {
		g, err := gc.get(gd.spec, derive(seed, tagGraph))
		if err != nil {
			return nil, err
		}
		occ := make([]uint8, g.N())
		for v := range occ {
			occ[v] = 1
		}
		occ[gd.far] = 0
		kern := g.Kernel()
		r := rng.New(2)
		const total, budget = 1 << 22, 1 << 16
		var steps int64
		d := timed(tr, "layer.kernel.walk", func() {
			for steps < total {
				_, s := kern.WalkUntilVacant(0, false, occ, 1, budget, r)
				steps += s
			}
		})
		out[gd.key] = nsPer(d, int(steps))
		m.set("kernel.walk_ns_per_step."+gd.key, out[gd.key], "ns")
	}
	return out, nil
}

// laneLayer times StepLane over all 64 slots of a B=64 lane. It returns
// ns per slot-step per graph key.
func laneLayer(m metrics, gc graphCache, seed uint64, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	for _, key := range laneGraphs {
		g, err := gc.get(graphByKey(key).spec, derive(seed, tagGraph))
		if err != nil {
			return nil, err
		}
		const width, calls = 64, 1 << 15
		var lane rng.LaneSource
		lane.Resize(width)
		pos := make([]int32, width)
		idx := make([]int32, width)
		for j := range width {
			lane.Seed(j, uint64(j)+1)
			idx[j] = int32(j)
		}
		kern := g.Kernel()
		d := timed(tr, "layer.kernel.lane", func() {
			for range calls {
				kern.StepLane(pos, idx, false, &lane)
			}
		})
		out[key] = nsPer(d, calls*width)
		m.set("kernel.lane_ns_per_slot_step."+key, out[key], "ns")
	}
	return out, nil
}

// graphspecLayer times graphspec.Build, median of three builds.
func graphspecLayer(m metrics, tr *tracer) error {
	for _, gd := range buildGraphs {
		var xs []float64
		for range 3 {
			var err error
			d := timed(tr, "layer.graphspec.build", func() { _, err = graphspec.Build(gd.spec, 1) })
			if err != nil {
				return err
			}
			xs = append(xs, ms(d))
		}
		m.set("graphspec.build_ms."+gd.key, percentile(xs, 0.5), "ms")
	}
	return nil
}

// intoFunc is a process's internal *Into entry point.
type intoFunc func(g graph.Graph, origin int, opt core.Options, r *rng.Source, s *core.Scratch, res *core.CTResult) error

func discrete(f func(graph.Graph, int, core.Options, *rng.Source, *core.Scratch, *core.Result) error) intoFunc {
	return func(g graph.Graph, origin int, opt core.Options, r *rng.Source, s *core.Scratch, res *core.CTResult) error {
		return f(g, origin, opt, r, s, &res.Result)
	}
}

var intoFuncs = map[string]intoFunc{
	"sequential":        discrete(core.SequentialInto),
	"parallel":          discrete(core.ParallelInto),
	"capacity":          discrete(core.CapacitySequentialInto),
	"capacity-parallel": discrete(core.CapacityParallelInto),
	"ct-uniform":        core.CTUniformInto,
}

// coreStat is one configuration's single-thread core cost.
type coreStat struct {
	nsPerTrial, stepsPerTrial float64
}

// coreConfig runs a configuration's process directly on one thread with
// a reused core.Scratch: the *Into function for scalar configurations,
// core.RunLane over whole B-trial blocks for batched ones. It replays
// every trial of the engine block rn seeds (trial i draws the block's
// stream i, walk.Runner.TrialSeed), so its per-trial figures cover the
// same trials as that block's engine figures.
func coreConfig(m metrics, c *engineCfg, rn *walk.Runner, tr *tracer) (coreStat, error) {
	var err error
	opt := core.Options{Particles: c.particles, Batch: c.batch}
	s := core.NewScratch()
	var (
		trials    int
		steps     int64
		fillSlots int64
	)
	d := timed(tr, "layer.core."+c.name, func() {
		if c.batch > 0 {
			seeds := make([]uint64, c.batch)
			res := make([]core.Result, c.batch)
			outs := make([]*core.Result, c.batch)
			for i := range outs {
				outs[i] = &res[i]
			}
			for ; trials < c.trials; trials += c.batch {
				for j := range seeds {
					seeds[j] = rn.TrialSeed(trials + j)
				}
				if err = core.RunLane(c.g, 0, opt, core.LaneStandard, seeds, s, outs); err != nil {
					return
				}
				var most int64
				for _, r := range res {
					steps += r.TotalSteps
					most = max(most, r.TotalSteps)
				}
				fillSlots += int64(c.batch) * most
			}
			return
		}
		into := intoFuncs[c.process]
		var src rng.Source
		var res core.CTResult
		for ; trials < c.trials; trials++ {
			src.Seed(rn.TrialSeed(trials))
			if err = into(c.g, 0, opt, &src, s, &res); err != nil {
				return
			}
			steps += res.TotalSteps
		}
	})
	if err != nil {
		return coreStat{}, fmt.Errorf("core %s: %w", c.name, err)
	}
	st := coreStat{nsPerTrial: nsPer(d, trials), stepsPerTrial: float64(steps) / float64(trials)}
	m.set("core.ns_per_trial."+c.name, st.nsPerTrial, "ns")
	m.set("core.steps_per_trial."+c.name, st.stepsPerTrial, "count")
	if c.batch > 0 {
		m.set("core.lane_fill."+c.name, float64(steps)/float64(fillSlots), "ratio")
	}
	return st, nil
}

// walkLayer times walk.StreamState's in-order delivery with an empty
// trial function at the engine's worker count.
func walkLayer(ctx context.Context, m metrics, tr *tracer) error {
	const n = 200000
	rn := walk.NewRunner(1, 0)
	rn.SetWorkers(engineWorkers)
	var err error
	d := timed(tr, "layer.walk.deliver", func() {
		err = walk.StreamState(ctx, rn, 0, n,
			func() struct{} { return struct{}{} },
			func(int, *rng.Source, struct{}) (struct{}, error) { return struct{}{}, nil },
			func(int, struct{}) error { return nil })
	})
	m.set("walk.ns_per_delivery", nsPer(d, n), "ns")
	return err
}

// serviceResults runs the service's stream-op job in-process: sequential
// on complete:256, full results.
func serviceResults(ctx context.Context, trials int) ([]*dispersion.Result, error) {
	var out []*dispersion.Result
	err := dispersion.Engine{Seed: 1, Workers: engineWorkers}.Run(ctx,
		dispersion.Job{Process: "sequential", Spec: "complete:256", Trials: trials},
		func(t dispersion.Trial) error { out = append(out, t.Result); return nil })
	return out, err
}

// aggLayer times agg.Summary over complete:256 results: Add, the
// coordinator's two-shard merge into a fresh summary, and the JSON round
// trip of a shard summary.
func aggLayer(ctx context.Context, m metrics, tr *tracer) error {
	results, err := serviceResults(ctx, 64)
	if err != nil {
		return err
	}
	const reps = 2000
	s := agg.NewSummary()
	d := timed(tr, "layer.agg.add", func() {
		for range reps {
			for _, r := range results {
				s.Add(r)
			}
		}
	})
	m.set("agg.add_ns", nsPer(d, reps*len(results)), "ns")
	a, b := agg.NewSummary(), agg.NewSummary()
	for i, r := range results {
		if i < len(results)/2 {
			a.Add(r)
		} else {
			b.Add(r)
		}
	}
	d = timed(tr, "layer.agg.merge", func() {
		for range reps {
			merged := agg.NewSummary()
			if err = merged.Merge(a); err == nil {
				err = merged.Merge(b)
			}
		}
	})
	if err != nil {
		return err
	}
	m.set("agg.merge_us", nsPer(d, reps)/1e3, "us")
	var blob []byte
	d = timed(tr, "layer.agg.marshal", func() {
		for range reps {
			blob, err = json.Marshal(a)
		}
	})
	if err != nil {
		return err
	}
	m.set("agg.marshal_us", nsPer(d, reps)/1e3, "us")
	m.set("agg.summary_bytes", float64(len(blob)), "bytes")
	d = timed(tr, "layer.agg.unmarshal", func() {
		for range reps {
			var back agg.Summary
			err = json.Unmarshal(blob, &back)
		}
	})
	if err != nil {
		return err
	}
	m.set("agg.unmarshal_us", nsPer(d, reps)/1e3, "us")
	return nil
}

// sinkLayer times the NDJSON wire form of complete:256 results: the
// server's sink.JSONL encode and the coordinator's per-line sink.Record
// decode.
func sinkLayer(ctx context.Context, m metrics, tr *tracer) error {
	results, err := serviceResults(ctx, 64)
	if err != nil {
		return err
	}
	const reps = 20
	var buf bytes.Buffer
	enc := sink.NewJSONL(&buf)
	d := timed(tr, "layer.sink.encode", func() {
		for range reps {
			buf.Reset()
			for i, r := range results {
				if err = enc.Write(dispersion.Trial{Index: i, Result: r}); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte{'\n'})
	m.set("sink.encode_us_per_line", nsPer(d, reps*len(results))/1e3, "us")
	m.set("sink.ndjson_bytes_per_line", float64(buf.Len())/float64(len(lines)), "bytes")
	d = timed(tr, "layer.sink.decode", func() {
		for range reps {
			for _, line := range lines {
				var rec sink.Record
				if err = json.Unmarshal(line, &rec); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}
	m.set("sink.decode_us_per_line", nsPer(d, reps*len(lines))/1e3, "us")
	return nil
}

// opClass is one kind and spec of traced service op: its p50 latency
// against the p50 run time (StartedAt to FinishedAt) of its slowest shard
// job, which is the job's graph build and simulation. Their ratio is the
// share of the op the servers spent running jobs.
type opClass struct {
	Class     string  `json:"class"`
	Ops       int     `json:"ops"`
	LatencyMS float64 `json:"latency_ms_p50"`
	RunMS     float64 `json:"run_ms_p50"`
}

// serviceLayers derives the server and shard metrics of traced service
// ops from their spans and the servers' job statuses, and returns the
// ops' classes.
func serviceLayers(m metrics, tr *tracer, spans []span, ops []opResult, jobs map[string]server.Status) []opClass {
	type opSpans struct {
		*opResult
		submits int
		jobs    []string
	}
	byID := map[int]*opSpans{}
	for i := range ops {
		byID[ops[i].span] = &opSpans{opResult: &ops[i]}
	}
	var submit, lag, queue, run, sumOver, strOver []float64
	non2xx, resubmits := 0, 0
	lastSummary := map[string]time.Duration{}
	for _, s := range spans {
		o := byID[s.Parent]
		if o == nil {
			continue
		}
		if s.Status < 200 || s.Status > 299 {
			non2xx++
		}
		switch s.Name {
		case "http.submit":
			o.submits++
			submit = append(submit, ms(s.End-s.Start))
			if k := jobKey(s.Attr); k != "" {
				o.jobs = append(o.jobs, k)
			}
		case "http.summary":
			if k := jobKey(s.Attr); k != "" && s.End > lastSummary[k] {
				lastSummary[k] = s.End
			}
		}
	}
	for k, end := range lastSummary {
		if st, ok := jobs[k]; ok {
			lag = append(lag, ms(tr.wallAt(end).Sub(st.FinishedAt)))
		}
	}
	classLatency, classRun := map[string][]float64{}, map[string][]float64{}
	for _, o := range byID {
		resubmits += max(0, o.submits-2)
		var slowest, slowestRun time.Duration
		for _, k := range o.jobs {
			st, ok := jobs[k]
			if !ok {
				continue
			}
			queue = append(queue, ms(st.StartedAt.Sub(st.SubmittedAt)))
			run = append(run, ms(st.FinishedAt.Sub(st.StartedAt)))
			slowest = max(slowest, st.FinishedAt.Sub(st.SubmittedAt))
			slowestRun = max(slowestRun, st.FinishedAt.Sub(st.StartedAt))
		}
		if o.op.Kind == opSummary {
			sumOver = append(sumOver, ms(o.latency-slowest))
		} else {
			strOver = append(strOver, ms(o.latency-slowest))
		}
		class := o.op.Kind.String() + " " + o.op.Req.Spec
		classLatency[class] = append(classLatency[class], ms(o.latency))
		classRun[class] = append(classRun[class], ms(slowestRun))
	}
	m.set("server.queue_wait_ms_p50", percentile(queue, 0.5), "ms")
	m.set("server.run_ms_p50", percentile(run, 0.5), "ms")
	m.set("server.submit_ms_p50", percentile(submit, 0.5), "ms")
	m.set("server.summary_lag_ms_p50", percentile(lag, 0.5), "ms")
	m.set("server.http_non2xx", float64(non2xx), "count")
	m.set("shard.summary_overhead_ms_p50", percentile(sumOver, 0.5), "ms")
	m.set("shard.stream_overhead_ms_p50", percentile(strOver, 0.5), "ms")
	m.set("shard.resubmits", float64(resubmits), "count")
	var classes []opClass
	for class, lat := range classLatency {
		classes = append(classes, opClass{Class: class, Ops: len(lat),
			LatencyMS: percentile(lat, 0.5), RunMS: percentile(classRun[class], 0.5)})
	}
	slices.SortFunc(classes, func(a, b opClass) int { return strings.Compare(a.Class, b.Class) })
	return classes
}

// writeOpClasses prints the share of each service op class that the
// servers spent running its slowest shard job.
func writeOpClasses(w io.Writer, classes []opClass) {
	fmt.Fprintln(w, "service op classes (traced ops; run = slowest shard job, StartedAt to FinishedAt):")
	fmt.Fprintf(w, "  %-28s %6s %14s %12s %10s\n", "class", "ops", "latency p50", "run p50", "run share")
	for _, c := range classes {
		fmt.Fprintf(w, "  %-28s %6d %11.3f ms %9.3f ms %9.1f%%\n", c.Class, c.Ops, c.LatencyMS, c.RunMS, 100*c.RunMS/c.LatencyMS)
	}
}
