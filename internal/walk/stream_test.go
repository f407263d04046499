package walk

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dispersion/internal/rng"
)

// TestStreamOrderAndDeterminism checks that Stream delivers results in
// strict trial order with per-trial split streams, independent of the
// worker count.
func TestStreamOrderAndDeterminism(t *testing.T) {
	const trials = 200
	sample := func(workers int) []float64 {
		rn := NewRunner(42, 7)
		rn.SetWorkers(workers)
		out := make([]float64, 0, trials)
		err := StreamFrom(context.Background(), rn, 0, trials,
			func(i int, r *rng.Source) (float64, error) {
				return float64(i)*1e9 + float64(r.Intn(1000)), nil
			},
			func(i int, v float64) error {
				if i != len(out) {
					t.Fatalf("delivery out of order: got %d, want %d", i, len(out))
				}
				out = append(out, v)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := sample(1)
	for _, w := range []int{2, 4, 16} {
		if got := sample(w); !reflect.DeepEqual(got, serial) {
			t.Fatalf("results differ between 1 worker and %d workers", w)
		}
	}
}

// TestStreamMatchesRun pins Stream's trial streams to Run's.
func TestStreamMatchesRun(t *testing.T) {
	const trials = 64
	fn := func(i int, r *rng.Source) float64 { return r.Float64() }
	want := NewRunner(3, 9).Run(trials, fn)
	got := make([]float64, trials)
	err := StreamFrom(context.Background(), NewRunner(3, 9), 0, trials,
		func(i int, r *rng.Source) (float64, error) { return fn(i, r), nil },
		func(i int, v float64) error { got[i] = v; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Stream and Run disagree on the same (seed, experiment)")
	}
}

func TestStreamFnError(t *testing.T) {
	sentinel := errors.New("trial exploded")
	rn := NewRunner(1, 1)
	rn.SetWorkers(4)
	delivered := 0
	err := StreamFrom(context.Background(), rn, 0, 1000,
		func(i int, r *rng.Source) (int, error) {
			if i == 10 {
				return 0, sentinel
			}
			return i, nil
		},
		func(i int, v int) error { delivered++; return nil })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	// The error path is deterministic too: every trial below the failing
	// index is delivered, nothing at or past it.
	if delivered != 10 {
		t.Fatalf("delivered %d results, want exactly the 10 below the failing trial", delivered)
	}
}

func TestStreamEachError(t *testing.T) {
	sentinel := errors.New("consumer is full")
	rn := NewRunner(1, 1)
	rn.SetWorkers(4)
	delivered := 0
	err := StreamFrom(context.Background(), rn, 0, 1000,
		func(i int, r *rng.Source) (int, error) { return i, nil },
		func(i int, v int) error {
			delivered++
			if delivered == 7 {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if delivered != 7 {
		t.Fatalf("delivered %d results after consumer error, want 7", delivered)
	}
}

func TestStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rn := NewRunner(1, 1)
	rn.SetWorkers(2)
	delivered := 0
	err := StreamFrom(ctx, rn, 0, 1<<30,
		func(i int, r *rng.Source) (int, error) { return i, nil },
		func(i int, v int) error {
			delivered++
			if delivered == 5 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if delivered >= 1<<20 {
		t.Fatal("cancellation did not stop the stream promptly")
	}
}

// TestStreamFromMatchesSlice checks the sharding invariant: an offset
// range delivers results bit-identical to the corresponding slice of one
// contiguous stream, for any worker count.
func TestStreamFromMatchesSlice(t *testing.T) {
	const total = 100
	fn := func(i int, r *rng.Source) (float64, error) {
		return float64(i)*1e9 + float64(r.Intn(1000)), nil
	}
	whole := make([]float64, 0, total)
	if err := StreamFrom(context.Background(), NewRunner(8, 3), 0, total, fn,
		func(i int, v float64) error { whole = append(whole, v); return nil }); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ first, trials, workers int }{
		{0, 100, 2}, {0, 37, 1}, {37, 40, 3}, {77, 23, 8}, {99, 1, 4},
	} {
		rn := NewRunner(8, 3)
		rn.SetWorkers(tc.workers)
		got := make([]float64, 0, tc.trials)
		err := StreamFrom(context.Background(), rn, tc.first, tc.trials, fn,
			func(i int, v float64) error {
				if want := tc.first + len(got); i != want {
					t.Fatalf("delivery out of order: got trial %d, want %d", i, want)
				}
				got = append(got, v)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if want := whole[tc.first : tc.first+tc.trials]; !reflect.DeepEqual(got, want) {
			t.Fatalf("range [%d,%d) with %d workers diverged from the contiguous slice",
				tc.first, tc.first+tc.trials, tc.workers)
		}
	}
}

// TestStreamNoSpuriousCancelError is the regression test for the tail of
// Stream: a parent cancellation that lands after the last trial has been
// delivered must not turn a fully successful stream into an error.
func TestStreamNoSpuriousCancelError(t *testing.T) {
	const trials = 50
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rn := NewRunner(1, 1)
	rn.SetWorkers(4)
	delivered := 0
	err := StreamFrom(ctx, rn, 0, trials,
		func(i int, r *rng.Source) (int, error) { return i, nil },
		func(i int, v int) error {
			delivered++
			if i == trials-1 {
				// The caller cancels as soon as it has everything — the
				// natural shape of a consumer that got what it wanted.
				cancel()
			}
			return nil
		})
	if err != nil {
		t.Fatalf("fully delivered stream returned %v after post-completion cancel", err)
	}
	if delivered != trials {
		t.Fatalf("delivered %d of %d trials", delivered, trials)
	}
}

func TestStreamZeroTrials(t *testing.T) {
	if err := StreamFrom(context.Background(), NewRunner(1, 1), 0, 0,
		func(i int, r *rng.Source) (int, error) { return 0, nil },
		func(i int, v int) error { return fmt.Errorf("must not be called") }); err != nil {
		t.Fatal(err)
	}
}

// TestStreamBoundedWindow checks that workers never run far ahead of the
// delivery cursor, so unbounded trial counts use bounded memory.
func TestStreamBoundedWindow(t *testing.T) {
	rn := NewRunner(1, 1)
	rn.SetWorkers(4)
	var maxAhead, deliverCursor atomic.Int64
	err := StreamFrom(context.Background(), rn, 0, 10000,
		func(i int, r *rng.Source) (int, error) {
			ahead := int64(i) - deliverCursor.Load()
			for {
				prev := maxAhead.Load()
				if ahead <= prev || maxAhead.CompareAndSwap(prev, ahead) {
					break
				}
			}
			return i, nil
		},
		func(i int, v int) error { deliverCursor.Store(int64(i) + 1); return nil })
	if err != nil {
		t.Fatal(err)
	}
	// The window is 4*workers = 16 tokens; allow generous slack for the
	// approximate sampling above.
	if maxAhead.Load() > 64 {
		t.Fatalf("worker ran %d trials ahead of delivery; window is not bounded", maxAhead.Load())
	}
}

// goid returns the calling goroutine's id, read from its stack header
// ("goroutine 7 [running]:").
func goid() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return strings.Fields(string(buf[:n]))[1]
}

// TestStreamEachRunsOnCaller checks that every delivery runs on the
// goroutine that called Stream, and that the caller runs trials of its
// own as one of the workers: each helper waits in its first trial until
// the caller has run one, which it can only do by claiming from the
// window the waiting helpers leave.
func TestStreamEachRunsOnCaller(t *testing.T) {
	caller := goid()
	for _, w := range []int{1, 2, 4} {
		rn := NewRunner(5, 2)
		rn.SetWorkers(w)
		ranOnCaller := make(chan struct{})
		var once sync.Once
		wait, stop := context.WithTimeout(context.Background(), 5*time.Second)
		err := StreamFrom(context.Background(), rn, 0, 300,
			func(i int, r *rng.Source) (int, error) {
				if goid() == caller {
					once.Do(func() { close(ranOnCaller) })
					return i, nil
				}
				select {
				case <-ranOnCaller:
				case <-wait.Done():
				}
				return i, nil
			},
			func(i int, v int) error {
				if g := goid(); g != caller {
					t.Errorf("workers=%d: trial %d delivered on goroutine %s, caller is %s", w, i, g, caller)
				}
				return nil
			})
		stop()
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-ranOnCaller:
		default:
			t.Errorf("workers=%d: the caller ran no trial", w)
		}
	}
}

// TestStreamSingleWorkerStartsNoGoroutine checks that W = 1 runs every
// trial and delivery on the caller, with no goroutine started.
func TestStreamSingleWorkerStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	rn := NewRunner(1, 1)
	rn.SetWorkers(1)
	check := func(where string, i int) {
		// Goroutines of earlier tests may still be exiting, so only a
		// count above the one before the stream shows a start.
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%s of trial %d: %d goroutines, %d before the stream", where, i, n, before)
		}
	}
	err := StreamFrom(context.Background(), rn, 0, 100,
		func(i int, r *rng.Source) (int, error) { check("fn", i); return i, nil },
		func(i int, v int) error { check("each", i); return nil })
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamCallerPanicStopsHelpers checks that a panic of fn or each on
// the caller stops every helper goroutine before it propagates.
func TestStreamCallerPanicStopsHelpers(t *testing.T) {
	for _, where := range []string{"fn", "each"} {
		before := runtime.NumGoroutine()
		caller := goid()
		rn := NewRunner(1, 1)
		rn.SetWorkers(4)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic reached the caller", where)
				}
			}()
			_ = StreamFrom(context.Background(), rn, 0, 1<<20,
				func(i int, r *rng.Source) (int, error) {
					if where == "fn" && i >= 20 && goid() == caller {
						panic("fn failed")
					}
					return i, nil
				},
				func(i int, v int) error {
					if where == "each" && i == 20 {
						panic("each failed")
					}
					return nil
				})
		}()
		// Helpers have returned once Stream unwinds; give the runtime a
		// moment to retire their goroutines.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%s panic: %d goroutines still running, %d before the stream", where, n, before)
		}
	}
}
