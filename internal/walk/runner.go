package walk

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

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

// Workers returns the degree of parallelism before a stream's trial cap.
func (rn *Runner) Workers() int { return rn.workers }

// TrialSeed returns the seed of trial i's split stream — the same
// (experimentID, i) derivation SplitInto reseeds workers with. The
// engine's batched path seeds lane slots with it, tying every batched
// trial to the same (seed, experiment, trial) lineage as its scalar
// counterpart. It only reads the root source, so concurrent calls are
// safe alongside the worker reseeds.
func (rn *Runner) TrialSeed(i int) uint64 {
	return rn.root.SplitSeed(rn.experimentID, uint64(i))
}

// streamed carries one trial outcome from a helper worker to the caller.
type streamed[T any] struct {
	trial int
	v     T
	err   error
}

// StreamFrom runs fn for the trial range [first, first+trials) across the
// runner's worker pool and delivers every result to each in strict trial
// order. Trial i draws the split stream Split(experimentID, i), the one
// Run uses, so the sequence of values delivered is identical for any
// worker count, and the results of an offset range are bit-identical to
// the corresponding slice of one contiguous [0, n) stream — this is what
// lets trial ranges shard across jobs and machines. first must be
// non-negative.
//
// Unlike Run, StreamFrom does not materialize all results: workers may
// run at most a small window ahead of the delivery cursor, so memory
// stays bounded no matter how many trials are requested. fn must be safe
// to call concurrently with distinct sources, and r is valid only for the
// duration of the call — each worker reseeds one local generator per
// trial, so a retained pointer would be overwritten by the worker's next
// trial. each is always called on the calling goroutine.
//
// The first error — from ctx, fn, or each — stops the stream and is
// returned; trials past the failure point may never run. Once every
// trial has been delivered successfully, StreamFrom returns nil even if
// ctx is cancelled afterwards.
func StreamFrom[T any](ctx context.Context, rn *Runner, first, trials int,
	fn func(trial int, r *rng.Source) (T, error),
	each func(trial int, v T) error) error {
	return StreamState(ctx, rn, first, trials,
		func() struct{} { return struct{}{} },
		func(trial int, r *rng.Source, _ struct{}) (T, error) { return fn(trial, r) },
		each)
}

// StreamState is StreamFrom with per-worker scratch state: newState runs
// once in each worker and its value is handed to every fn call that worker
// makes. It is the hook through which the engine threads a reusable
// per-worker Scratch (occupancy stamps, position buffers, event heaps) so
// steady-state trials allocate nothing; any worker-affine resource
// (arena, profiler, connection) threads the same way.
//
// The calling goroutine is one of the W workers (W = the runner's worker
// count, capped at trials): only W−1 helper goroutines start, none at
// W = 1. Every worker claims the next trial index from one shared cursor,
// and a worker may claim only while fewer than 4·W claimed trials wait
// for delivery. The caller runs its claims on its own state and, between
// them, delivers every finished trial in order, so each still runs on the
// caller, in trial order. When the next trial to deliver is still running
// on a helper and the window is full, the caller waits for it.
//
// The per-trial randomness is unchanged: trial i's source is reseeded from
// the split stream (experimentID, i) — bit-identical to the Source that
// Split would return, but written into a worker-local generator so the hot
// path performs no per-trial allocation.
//
// fn must not retain r or the state value past the call for types shared
// across calls. If fn or each panics on the caller, StreamState stops the
// helpers and waits for them before the panic propagates.
func StreamState[T, S any](ctx context.Context, rn *Runner, first, trials int,
	newState func() S,
	fn func(trial int, r *rng.Source, state S) (T, error),
	each func(trial int, v T) error) error {
	if trials <= 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()

	end := first + trials
	workers := min(rn.workers, trials)
	// Tokens bound how far claimed-but-undelivered trials can run ahead of
	// the delivery cursor; the caller refunds one per delivery. Every
	// undelivered claim therefore lies in [deliver, deliver+window), so a
	// ring of window slots holds the finished ones.
	window := min(4*workers, trials)
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	// Helpers never block on a send: each result holds a token.
	results := make(chan streamed[T], window)
	var next atomic.Int64 // the claim cursor
	next.Store(int64(first))
	claim := func() int { return int(next.Add(1) - 1) }

	for w := 1; w < workers; w++ {
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
				i := claim()
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

	// To keep the error path deterministic too, a trial failure does not
	// discard earlier successes: trial indices are claimed in order, so
	// every trial below the lowest failing index is already claimed and
	// will finish; each of them is still delivered before the failing
	// trial's error is returned. A callback error stops delivery at that
	// point instead.
	var firstErr error
	failIdx := end // lowest trial index that failed
	ring := make([]struct {
		v  T
		ok bool
	}, window)
	take := func(res streamed[T]) {
		if res.err != nil {
			if res.trial < failIdx {
				failIdx, firstErr = res.trial, res.err
			}
			cancel()
			return
		}
		slot := &ring[(res.trial-first)%window]
		slot.v, slot.ok = res.v, true
	}
	done := ctx.Done()
	stopped := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	state := newState()
	var src rng.Source
	deliver := first
	for deliver < failIdx {
		if slot := &ring[(deliver-first)%window]; slot.ok {
			var zero T
			v := slot.v
			slot.v, slot.ok = zero, false
			if err := each(deliver, v); err != nil {
				firstErr = err
				break
			}
			deliver++
			tokens <- struct{}{}
			continue
		}
		select {
		case res := <-results:
			take(res)
			continue
		default:
		}
		// The next trial to deliver is unclaimed or running on a helper:
		// run a trial here while the window has room.
		if int(next.Load()) < end && !stopped() {
			select {
			case <-tokens:
				if i := claim(); i < end {
					rn.root.SplitInto(&src, rn.experimentID, uint64(i))
					v, err := fn(i, &src, state)
					take(streamed[T]{trial: i, v: v, err: err})
				}
				continue
			default:
			}
		}
		if int64(deliver) >= next.Load() && stopped() {
			// Nothing is in flight and no more trials will be claimed.
			break
		}
		// A helper holds the next trial, or holds a token and is about to
		// claim it, and sends every trial it claims.
		take(<-results)
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
	// StreamFrom cannot return an error here.
	_ = StreamFrom(context.Background(), rn, 0, trials,
		func(i int, r *rng.Source) (float64, error) { return fn(i, r), nil },
		func(i int, v float64) error { out[i] = v; return nil })
	return out
}
