package walk

import (
	"context"
	"runtime"
	"sync"

	"dispersion/internal/rng"
)

// Runner executes independent Monte-Carlo trials across all cores with
// fully deterministic per-trial randomness: trial i always receives the
// stream Split(experimentID, i) of the root source, so results are
// reproducible regardless of GOMAXPROCS or scheduling order.
type Runner struct {
	root         *rng.Source
	experimentID uint64
	workers      int
}

// NewRunner returns a Runner rooted at the given seed. experimentID
// namespaces the trial streams so different experiments sharing a seed do
// not correlate.
func NewRunner(seed, experimentID uint64) *Runner {
	return &Runner{
		root:         rng.New(seed),
		experimentID: experimentID,
		workers:      runtime.GOMAXPROCS(0),
	}
}

// SetWorkers overrides the degree of parallelism (useful in tests).
func (rn *Runner) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	rn.workers = w
}

// TrialSeed returns the seed of trial i's split stream — the same
// (experimentID, i) derivation SplitInto reseeds workers with. The
// engine's batched path seeds lane slots with it, tying every batched
// trial to the same (seed, experiment, trial) lineage as its scalar
// counterpart. It only reads the root source, so concurrent calls are
// safe alongside the worker reseeds.
func (rn *Runner) TrialSeed(i int) uint64 {
	return rn.root.SplitSeed(rn.experimentID, uint64(i))
}

// streamed carries one trial outcome from a worker to the collector.
type streamed[T any] struct {
	trial int
	v     T
	err   error
}

// Stream runs fn for trials independent trials across the runner's worker
// pool and delivers every result to each in strict trial order. The trial
// randomness is the same split stream Run uses, so the sequence of values
// delivered is identical for any worker count.
//
// Unlike Run, Stream does not materialize all results: workers may run at
// most a small window ahead of the delivery cursor, so memory stays
// bounded no matter how many trials are requested. fn must be safe to
// call concurrently with distinct sources, and r is valid only for the
// duration of the call — each worker reseeds one local generator per
// trial, so a retained pointer would be overwritten by the worker's next
// trial. each is always called from a single goroutine.
//
// The first error — from ctx, fn, or each — stops the stream and is
// returned; trials past the failure point may never run. Once every
// trial has been delivered successfully, Stream returns nil even if ctx
// is cancelled afterwards.
func Stream[T any](ctx context.Context, rn *Runner, trials int,
	fn func(trial int, r *rng.Source) (T, error),
	each func(trial int, v T) error) error {
	return StreamFrom(ctx, rn, 0, trials, fn, each)
}

// StreamFrom is Stream with an offset claim cursor: it runs the trial
// range [first, first+trials) instead of [0, trials). Trial i still
// draws the split stream Split(experimentID, i), so the results of an
// offset range are bit-identical to the corresponding slice of one
// contiguous [0, n) stream — this is what lets trial ranges shard
// across jobs and machines. first must be non-negative. As with Stream,
// fn must not retain r past the call.
func StreamFrom[T any](ctx context.Context, rn *Runner, first, trials int,
	fn func(trial int, r *rng.Source) (T, error),
	each func(trial int, v T) error) error {
	return StreamState(ctx, rn, first, trials,
		func() struct{} { return struct{}{} },
		func(trial int, r *rng.Source, _ struct{}) (T, error) { return fn(trial, r) },
		each)
}

// StreamState is StreamFrom with per-worker scratch state: newState runs
// once inside each worker goroutine and its value is handed to every fn
// call that worker makes. It is the hook through which the engine threads
// a reusable per-worker Scratch (occupancy stamps, position buffers, event
// heaps) so steady-state trials allocate nothing; any worker-affine
// resource (arena, profiler, connection) threads the same way.
//
// The per-trial randomness is unchanged: trial i's source is reseeded from
// the split stream (experimentID, i) — bit-identical to the Source that
// Split would return, but written into a worker-local generator so the hot
// path performs no per-trial allocation.
//
// fn must not retain r or the state value past the call for types shared
// across calls; each trial is always called from a single goroutine.
func StreamState[T, S any](ctx context.Context, rn *Runner, first, trials int,
	newState func() S,
	fn func(trial int, r *rng.Source, state S) (T, error),
	each func(trial int, v T) error) error {
	if trials <= 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	end := first + trials
	workers := rn.workers
	if workers > trials {
		workers = trials
	}
	// Tokens bound how far completed-but-undelivered trials can run ahead
	// of the delivery cursor; the collector refunds one per delivery.
	window := 4 * workers
	if window > trials {
		window = trials
	}
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}

	results := make(chan streamed[T], window)
	next := first
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newState()
			var src rng.Source
			for {
				select {
				case <-ctx.Done():
					return
				case <-tokens:
				}
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= end {
					return
				}
				rn.root.SplitInto(&src, rn.experimentID, uint64(i))
				v, err := fn(i, &src, state)
				results <- streamed[T]{trial: i, v: v, err: err}
				if err != nil {
					cancel()
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector. To keep the error path deterministic too, a trial
	// failure does not discard earlier successes: trial indices are
	// claimed in order, so every trial below the lowest failing index is
	// already in flight and will arrive; each of them is still delivered
	// before the failing trial's error is returned. A callback error
	// stops delivery at that point instead.
	var firstErr error
	failIdx := end // lowest trial index that failed (or delivery cut-off)
	pending := make(map[int]T, window)
	deliver := first
	for res := range results {
		if res.err != nil {
			if res.trial < failIdx {
				failIdx = res.trial
				firstErr = res.err
			}
			continue
		}
		pending[res.trial] = res.v
		for deliver < failIdx {
			v, ok := pending[deliver]
			if !ok {
				break
			}
			delete(pending, deliver)
			if err := each(deliver, v); err != nil {
				firstErr = err
				failIdx = deliver
				cancel()
				break
			}
			deliver++
			tokens <- struct{}{}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if deliver >= end {
		// Every trial was delivered; a parent-context cancellation that
		// landed after the last delivery is not an error of this stream.
		return nil
	}
	return ctx.Err()
}

// Run executes fn for trials independent trials and returns the results in
// trial order. fn must be safe to call concurrently with distinct sources.
func (rn *Runner) Run(trials int, fn func(trial int, r *rng.Source) float64) []float64 {
	out := make([]float64, trials)
	// fn and each cannot fail and the context is never cancelled, so
	// Stream cannot return an error here.
	_ = Stream(context.Background(), rn, trials,
		func(i int, r *rng.Source) (float64, error) { return fn(i, r), nil },
		func(i int, v float64) error { out[i] = v; return nil })
	return out
}
