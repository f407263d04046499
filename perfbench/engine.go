package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"dispersion"
	"dispersion/agg"
	"dispersion/internal/rng"
	"dispersion/internal/stats"
	"dispersion/server"
)

// Seed-derivation tags: every job seed and op order is derive(seed, tag,
// coordinates...), a pure function of the workload seed.
const (
	tagGraph uint64 = iota + 1
	tagWarm
	tagBlock
	tagRoundOrder
	tagOpOrder
	tagOpSeed
	tagOpCheck
	tagCold
	tagJitter
)

// derive returns the seed at the given coordinates under the workload
// seed, by internal/rng's split law.
func derive(seed uint64, ids ...uint64) uint64 { return rng.New(seed).SplitSeed(ids...) }

// tally counts operations attempted and failed.
type tally struct{ attempted, failed int }

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

var errTruncated = errors.New("trial truncated")

// checkTrial is the per-trial output check: a run must be untruncated and
// leave no particle unsettled.
func checkTrial(res *dispersion.Result) error {
	if res.Truncated {
		return errTruncated
	}
	if u := res.Unsettled(); u > 0 {
		return fmt.Errorf("%d particles unsettled", u)
	}
	return nil
}

// theoremMean is (n-1)·H(n-1), the mean total step count of Sequential
// IDLA on K_n (a sum of geometric variables with means (n-1)/(n-i)), and
// by Theorem 4.1 of Parallel IDLA too.
func theoremMean(n int) float64 {
	var h float64
	for i := 1; i < n; i++ {
		h += 1 / float64(i)
	}
	return float64(n-1) * h
}

// theoremCheck requires the sample mean of total steps on K_n to fall
// within 6 standard errors of theoremMean(n).
func theoremCheck(steps []float64, n int) error {
	if len(steps) < 2 {
		return nil
	}
	s := stats.Summarize(steps)
	want := theoremMean(n)
	if math.Abs(s.Mean-want) > 6*s.StdErr {
		return fmt.Errorf("mean total steps %.2f over %d trials, want %.2f ± 6×%.2f", s.Mean, s.N, want, s.StdErr)
	}
	return nil
}

// engineCfg is a configuration ready to run.
type engineCfg struct {
	config
	g    dispersion.Graph
	opts []dispersion.Option
}

// setupEngine builds every graph of the workload through gc and warms each
// configuration with one Engine.Run of one trial per worker.
func setupEngine(ctx context.Context, workload string, seed uint64, gc graphCache) ([]*engineCfg, tally, error) {
	var t tally
	var cfgs []*engineCfg
	for _, c := range configsOf(workload) {
		g, err := gc.get(graphByKey(c.graph).spec, derive(seed, tagGraph))
		if err != nil {
			return nil, t, err
		}
		opts := server.Options{Particles: c.particles, Batch: c.batch}.Build()
		cfgs = append(cfgs, &engineCfg{config: c, g: g, opts: opts})
	}
	for i, c := range cfgs {
		b, err := runBlock(ctx, c, derive(seed, tagWarm, uint64(i)), engineWorkers, nil)
		if err != nil {
			return nil, t, err
		}
		t.add(b.tally)
	}
	return cfgs, t, nil
}

// workingSets computes every configuration's working set from its graph,
// built through gc.
func workingSets(gc graphCache, seed uint64, l2 int64) ([]workingSet, error) {
	var out []workingSet
	for _, c := range configs {
		g, err := gc.get(graphByKey(c.graph).spec, derive(seed, tagGraph))
		if err != nil {
			return nil, err
		}
		out = append(out, computeWorkingSet(c, g, l2))
	}
	return out, nil
}

// blockFold is the Engine.Run callback of one block: it folds every trial
// into the block's agg.Summary and checks it. A failed check fails that
// trial; the run goes on.
type blockFold struct {
	sum   *agg.Summary
	want  int // trials in the block
	tally tally
	steps []float64 // TotalSteps per trial, when keep is set
	keep  bool
	last  time.Time // delivery of the block's last trial
	tr    *tracer
	run   int // Engine.Run span
}

func (f *blockFold) add(t dispersion.Trial) error {
	id := f.tr.begin("engine.deliver", f.run, "")
	f.tally.attempted++
	if checkTrial(t.Result) != nil {
		f.tally.failed++
	}
	f.sum.Add(t.Result)
	if f.keep {
		f.steps = append(f.steps, float64(t.Result.TotalSteps))
	}
	if f.tally.attempted == f.want {
		f.last = time.Now()
	}
	f.tr.end(id)
	return nil
}

// block is one Engine.Run call of one configuration.
type block struct {
	cfg       int // index into the workload's configurations
	tally     tally
	wall      time.Duration // call to Run's return
	toLast    time.Duration // call to the last trial delivered
	toSummary time.Duration // call to the folded summary's JSON
	steps     []float64
}

// runBlock runs trials of c under jobSeed, folding them into an
// agg.Summary as the engine delivers them.
func runBlock(ctx context.Context, c *engineCfg, jobSeed uint64, trials int, tr *tracer) (block, error) {
	eng := dispersion.Engine{Seed: jobSeed, Workers: engineWorkers, ReuseResults: true}
	f := &blockFold{sum: agg.NewSummary(), want: trials, keep: c.theorem, tr: tr}
	f.run = tr.begin("engine.run", 0, c.name)
	t0 := time.Now()
	err := eng.Run(ctx, dispersion.Job{Process: c.process, Graph: c.g, Trials: trials, Options: c.opts}, f.add)
	wall := time.Since(t0)
	tr.end(f.run)
	if err != nil {
		return block{}, fmt.Errorf("%s: %w", c.name, err)
	}
	if _, err := json.Marshal(f.sum); err != nil {
		return block{}, fmt.Errorf("%s: summary: %w", c.name, err)
	}
	return block{
		tally: f.tally, wall: wall, toLast: f.last.Sub(t0), toSummary: time.Since(t0), steps: f.steps,
	}, nil
}

// engineRun is the outcome of a run of whole rounds, each running every
// configuration once in a seeded order.
type engineRun struct {
	rounds int
	wall   time.Duration
	blocks []block
	tally  tally
}

// nominalRound is how long one round of each engine workload took on the
// machine the trial counts were calibrated on (2 vCPUs of a shared Xeon
// VM). A run of S seconds measures ceil(S / nominalRound) rounds, so its
// work depends only on the seed and S, never on how fast the machine
// happens to be.
var nominalRound = map[string]float64{wlEngineCached: 5, wlEngineLarge: 8}

func engineRounds(workload string, seconds float64) int {
	return max(1, int(math.Ceil(seconds/nominalRound[workload])))
}

// runEngine runs the given number of rounds. Round r's order and job
// seeds derive from the workload seed.
func runEngine(ctx context.Context, cfgs []*engineCfg, seed uint64, rounds int) (engineRun, error) {
	out := engineRun{rounds: rounds}
	t0 := time.Now()
	for r := range rounds {
		for _, ci := range roundOrder(seed, r, len(cfgs)) {
			if err := out.add(ctx, cfgs, seed, r, ci, nil); err != nil {
				return out, err
			}
		}
	}
	out.wall = time.Since(t0)
	out.checkTheorem(cfgs)
	return out, nil
}

// add runs configuration ci's block of round r and records it.
func (e *engineRun) add(ctx context.Context, cfgs []*engineCfg, seed uint64, r, ci int, tr *tracer) error {
	b, err := runBlock(ctx, cfgs[ci], blockSeed(seed, r, ci), cfgs[ci].trials, tr)
	if err != nil {
		return err
	}
	b.cfg = ci
	e.blocks = append(e.blocks, b)
	e.tally.add(b.tally)
	return nil
}

// checkTheorem fails every trial of a configuration whose mean total
// steps misses the Theorem 4.1 closed form.
func (e *engineRun) checkTheorem(cfgs []*engineCfg) {
	for ci, c := range cfgs {
		if !c.theorem {
			continue
		}
		var steps []float64
		for _, b := range e.blocks {
			if b.cfg == ci {
				steps = append(steps, b.steps...)
			}
		}
		if err := theoremCheck(steps, c.g.N()); err != nil {
			logf("output check failed: %s: %v", c.name, err)
			e.tally.failed += len(steps)
		}
	}
}

// blockSeed is the job seed of configuration ci's block in round r.
func blockSeed(seed uint64, r, ci int) uint64 { return derive(seed, tagBlock, uint64(r), uint64(ci)) }

// roundOrder is round r's seeded permutation of n configurations.
func roundOrder(seed uint64, r, n int) []int {
	return rng.New(derive(seed, tagRoundOrder, uint64(r))).Perm(n)
}

// trials sums the trials attempted across the run's blocks.
func (e engineRun) trials() int { return e.tally.attempted }

// runWall sums the run's Engine.Run wall times.
func (e engineRun) runWall() time.Duration {
	var d time.Duration
	for _, b := range e.blocks {
		d += b.wall
	}
	return d
}

// configTime is one configuration's trials and Engine.Run wall time over
// a run.
type configTime struct {
	trials int
	wall   time.Duration
}

func (c configTime) nsPerTrial() float64 { return float64(c.wall.Nanoseconds()) / float64(c.trials) }

// perConfig sums each configuration's blocks.
func (e engineRun) perConfig(cfgs []*engineCfg) map[string]configTime {
	out := map[string]configTime{}
	for _, b := range e.blocks {
		ct := out[cfgs[b.cfg].name]
		ct.trials += b.tally.attempted
		ct.wall += b.wall
		out[cfgs[b.cfg].name] = ct
	}
	return out
}

// endToEnd reports the engine workload's end-to-end metrics. An op is one
// configuration block: summary_* time the call to the block's folded
// summary JSON, stream_* the call to its last trial delivered.
func (e engineRun) endToEnd(m metrics) {
	var sum, str []float64
	for _, b := range e.blocks {
		sum = append(sum, ms(b.toSummary))
		str = append(str, ms(b.toLast))
	}
	m.set("trials_per_sec", float64(e.trials())/e.wall.Seconds(), "1/s")
	m.set("summary_p50_ms", percentile(sum, 0.50), "ms")
	m.set("summary_p95_ms", percentile(sum, 0.95), "ms")
	m.set("stream_p50_ms", percentile(str, 0.50), "ms")
	m.set("stream_p95_ms", percentile(str, 0.95), "ms")
	logf("%d rounds, %d blocks, %d trials in %.2fs", e.rounds, len(e.blocks), e.trials(), e.wall.Seconds())
}
