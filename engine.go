package dispersion

import (
	"context"
	"fmt"
	"math"
	"sync"

	"dispersion/graphspec"
	"dispersion/internal/core"
	"dispersion/internal/walk"
)

// Engine runs many independent trials of a registered process across all
// cores with fully deterministic randomness: trial i of a job always
// draws from the split stream (Seed, Experiment, i), so results are
// bit-for-bit identical for any Workers setting and any GOMAXPROCS.
//
// The zero Engine is ready to use (seed 0, experiment 0, one worker per
// core).
type Engine struct {
	// Seed roots all randomness, including random graph families built
	// from Job.Spec. Equal seeds reproduce results exactly.
	Seed uint64
	// Experiment namespaces the trial streams so different experiments
	// sharing a seed do not correlate.
	Experiment uint64
	// Workers caps the degree of parallelism; 0 means one per core. The
	// goroutine that calls Run is one of the workers: it runs trials
	// itself and, between them, delivers finished trials to the callback,
	// so Run starts Workers−1 goroutines (none at 1) and the callback
	// still runs on the caller, in trial order. The setting affects
	// scheduling only, never results.
	Workers int
	// ReuseResults recycles each delivered Result's backing memory for a
	// later trial as soon as the callback returns, making steady-state
	// trials of the built-in processes allocation-free. A callback must
	// then treat the Trial's Result (and every slice it holds) as valid
	// only for the duration of the call, copying anything it keeps.
	// Sample and TotalSteps, which reduce each trial to a scalar, enable
	// it automatically. The default (false) preserves the historical
	// contract: every callback receives a freshly allocated Result it may
	// retain forever. The setting never affects results, only memory.
	ReuseResults bool
}

// Job describes one batch of trials: a process, a graph, and run options.
type Job struct {
	// Process is the registry name of the process to run, e.g.
	// "parallel" or "ctu" (see Processes for the full list).
	Process string
	// Graph is the graph to disperse on. If nil, Spec is parsed and
	// built with the engine seed instead.
	Graph Graph
	// Spec is a textual graph-family spec (see dispersion/graphspec),
	// used when Graph is nil.
	Spec string
	// Origin is the common start vertex (ignored under
	// WithRandomOrigins).
	Origin int
	// Trials is the number of independent realizations to run.
	Trials int
	// FirstTrial offsets the trial range: the job runs trials
	// [FirstTrial, FirstTrial+Trials), and trial i still draws the split
	// stream (Seed, Experiment, i). An offset job's results are therefore
	// bit-identical to the corresponding slice of one contiguous run —
	// the invariant that lets trial ranges shard across jobs and machines
	// (see dispersion/shard). Zero runs [0, Trials) as before.
	FirstTrial int
	// Options configure every trial identically.
	Options []Option
}

// Trial is one realization delivered to an Engine.Run callback.
type Trial struct {
	// Index is the trial number in [FirstTrial, FirstTrial+Trials);
	// callbacks always see indices in increasing order.
	Index int
	// Result is the trial's full outcome.
	Result *Result
}

// Validate checks that the job is well-formed without running it: the
// process must be registered, the job must carry a Graph or a
// syntactically valid Spec, and Trials must be positive. Long-running
// callers (the dispersion HTTP server) use it to reject bad submissions
// before queueing; Engine.Run performs the same checks itself.
//
// Validate does not build the graph, so Spec argument errors (e.g. a
// malformed size) still surface at run time.
func (job Job) Validate() error {
	if _, err := Lookup(job.Process); err != nil {
		return err
	}
	if job.Graph == nil {
		if job.Spec == "" {
			return fmt.Errorf("dispersion: job needs a Graph or a Spec")
		}
		if _, err := graphspec.Parse(job.Spec); err != nil {
			return err
		}
	}
	if job.Trials <= 0 {
		return fmt.Errorf("dispersion: job wants %d trials (need at least 1)", job.Trials)
	}
	if job.FirstTrial < 0 {
		return fmt.Errorf("dispersion: job starts at trial %d (need a non-negative offset)", job.FirstTrial)
	}
	if job.FirstTrial > math.MaxInt-job.Trials {
		return fmt.Errorf("dispersion: trial range [%d,%d+%d) overflows", job.FirstTrial, job.FirstTrial, job.Trials)
	}
	return nil
}

// Run executes job.Trials independent realizations and streams each
// result to the callback in strict trial order, without buffering more
// than a small scheduling window — arbitrarily long runs use bounded
// memory. each may be nil to discard results (e.g. when only checking
// that a configuration runs).
//
// Run stops at the first error — from the context, a trial, or the
// callback — and returns it.
func (e Engine) Run(ctx context.Context, job Job, each func(Trial) error) error {
	if err := job.Validate(); err != nil {
		return err
	}
	p, err := Lookup(job.Process)
	if err != nil {
		return err
	}
	g := job.Graph
	if g == nil {
		g, err = graphspec.Build(job.Spec, e.Seed)
		if err != nil {
			return err
		}
	}
	rn := walk.NewRunner(e.Seed, e.Experiment)
	if e.Workers > 0 {
		rn.SetWorkers(e.Workers)
	}
	if cp, ok := p.(*coreProcess); ok {
		return e.runCore(ctx, rn, cp, g, job, each)
	}
	return walk.StreamFrom(ctx, rn, job.FirstTrial, job.Trials,
		func(i int, r *Source) (*Result, error) {
			// External processes get a private copy of the trial source:
			// the runner reseeds one worker-local generator per trial,
			// and third-party Run implementations may legitimately have
			// retained their *Source under the historical contract.
			src := *r
			return p.Run(g, job.Origin, &src, job.Options...)
		},
		func(i int, res *Result) error {
			if each == nil {
				return nil
			}
			return each(Trial{Index: i, Result: res})
		})
}

// trialCell pairs one trial's internal result buffers with the public
// Result view delivered to the callback, so ReuseResults can recycle both
// together.
type trialCell struct {
	ct  core.CTResult
	out Result
}

// runCore is the hot path for the built-in processes: options are
// resolved once per job instead of once per trial, every worker carries a
// reusable core.Scratch (epoch-stamped occupancy, position/priority
// buffers, event heap), the per-trial RNG stream is reseeded into a
// worker-local source, and — under ReuseResults — result cells cycle
// through a pool. Steady-state trials of a non-Record job then allocate
// nothing. The RNG draws are identical to the generic path's, so results
// are bit-for-bit the same. A batched job runs the lane where
// core.LaneWidth chooses one and this unbatched path everywhere else.
func (e Engine) runCore(ctx context.Context, rn *walk.Runner, cp *coreProcess, g Graph, job Job, each func(Trial) error) error {
	opt := buildOptions(append(append([]Option(nil), cp.forced...), job.Options...))
	if opt.Batch != 0 {
		width, err := core.LaneWidth(g, job.Origin, opt, cp.lane, job.Trials, rn.Workers())
		if err != nil {
			return err
		}
		if width > 0 {
			return e.runCoreLane(ctx, rn, cp, g, job, opt, width, each)
		}
	}
	getCell, putCell := cellPool[trialCell](e.ReuseResults)
	return walk.StreamState(ctx, rn, job.FirstTrial, job.Trials,
		core.NewScratch,
		func(i int, r *Source, s *core.Scratch) (*trialCell, error) {
			cell := getCell()
			if err := cp.runInto(g, job.Origin, opt, r, s, &cell.ct); err != nil {
				return nil, err
			}
			cell.out.setCore(&cell.ct, cp.name, cp.continuous)
			return cell, nil
		},
		func(i int, cell *trialCell) error {
			var err error
			if each != nil {
				err = each(Trial{Index: i, Result: &cell.out})
			}
			putCell(cell)
			return err
		})
}

// laneCell carries one block of batched trials from a worker to the
// delivery: a trial cell per trial, the *Result views handed to RunLane,
// and the block's trial seeds. Under ReuseResults whole cells cycle
// through a pool.
type laneCell struct {
	trials []trialCell
	ptrs   []*core.Result
	seeds  []uint64
}

// grow sizes the cell for a block of n trials, reusing backing arrays.
func (c *laneCell) grow(n int) {
	if cap(c.trials) < n {
		c.trials = make([]trialCell, n)
		c.ptrs = make([]*core.Result, n)
		c.seeds = make([]uint64, n)
	}
	c.trials, c.ptrs, c.seeds = c.trials[:n], c.ptrs[:n], c.seeds[:n]
	for i := range c.ptrs {
		c.ptrs[i] = &c.trials[i].ct.Result
	}
}

// runCoreLane is the batched hot path, where core.LaneWidth chose a lane
// (the standard law on a table-backed kernel) of width b: each block of b
// trials runs as one core.RunLane call on a worker, and the delivery
// unpacks blocks back into per-trial callbacks in strict trial order.
// Trial i draws the scalar stream of the (Seed, Experiment, i) lineage in
// the scalar order, so results are byte-identical to the unbatched path's
// for any Batch, Workers or sharding.
func (e Engine) runCoreLane(ctx context.Context, rn *walk.Runner, cp *coreProcess, g Graph, job Job, opt core.Options, b int, each func(Trial) error) error {
	// Validate keeps end within int; the block count and each block's
	// length are computed so that nothing else can overflow either.
	end := job.FirstTrial + job.Trials
	numBlocks := job.Trials / b
	if job.Trials%b != 0 {
		numBlocks++
	}
	getCell, putCell := cellPool[laneCell](e.ReuseResults)
	return walk.StreamState(ctx, rn, 0, numBlocks,
		core.NewScratch,
		func(block int, _ *Source, s *core.Scratch) (*laneCell, error) {
			lo := job.FirstTrial + block*b
			cnt := min(b, end-lo)
			cell := getCell()
			cell.grow(cnt)
			for t := 0; t < cnt; t++ {
				cell.seeds[t] = rn.TrialSeed(lo + t)
			}
			if err := core.RunLane(g, job.Origin, opt, cp.lane, cell.seeds, s, cell.ptrs); err != nil {
				return nil, err
			}
			for t := range cell.trials {
				tc := &cell.trials[t]
				tc.out.setCore(&tc.ct, cp.name, cp.continuous)
			}
			return cell, nil
		},
		func(block int, cell *laneCell) error {
			lo := job.FirstTrial + block*b
			if each != nil {
				for t := range cell.trials {
					if err := each(Trial{Index: lo + t, Result: &cell.trials[t].out}); err != nil {
						return err
					}
				}
			}
			putCell(cell)
			return nil
		})
}

// cellPool returns how a job gets a result cell and gives it back: under
// ReuseResults cells cycle through a pool, otherwise each is new and is
// never given back.
func cellPool[T any](reuse bool) (get func() *T, put func(*T)) {
	if !reuse {
		return func() *T { return new(T) }, func(*T) {}
	}
	var pool sync.Pool
	return func() *T {
		if cell, ok := pool.Get().(*T); ok {
			return cell
		}
		return new(T)
	}, func(cell *T) { pool.Put(cell) }
}

// Sample runs the job and returns each trial's Makespan — the dispersion
// time on the process's natural scale — in trial order. It is the common
// reduction for statistics over many trials. Sample reduces each trial to
// one scalar, so it always runs with ReuseResults on.
func (e Engine) Sample(ctx context.Context, job Job) ([]float64, error) {
	return e.reduce(ctx, job, (*Result).Makespan)
}

// TotalSteps runs the job and returns each trial's total jump count in
// trial order (Theorem 4.1's conserved quantity across the Sequential and
// Parallel processes). Like Sample, it always runs with ReuseResults on.
func (e Engine) TotalSteps(ctx context.Context, job Job) ([]float64, error) {
	return e.reduce(ctx, job, func(r *Result) float64 { return float64(r.TotalSteps) })
}

// reduce runs the job with ReuseResults on and returns f of each trial's
// result, in trial order.
func (e Engine) reduce(ctx context.Context, job Job, f func(*Result) float64) ([]float64, error) {
	e.ReuseResults = true
	out := make([]float64, 0, max(job.Trials, 0))
	err := e.Run(ctx, job, func(t Trial) error {
		out = append(out, f(t.Result))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
