package shard_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dispersion"
	"dispersion/server"
	"dispersion/shard"
	"dispersion/sink"
)

// newServers starts n independent dispersion servers, all torn down with
// the test, and returns their base URLs.
func newServers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		m, err := server.NewManager(server.ManagerOptions{MaxConcurrent: 8})
		if err != nil {
			t.Fatalf("NewManager: %v", err)
		}
		ts := httptest.NewServer(server.New(m))
		t.Cleanup(func() {
			ts.Close()
			m.Close()
		})
		urls[i] = ts.URL
	}
	return urls
}

// direct renders the logical job's expected result lines with a single
// contiguous Engine.Run.
func direct(t *testing.T, req server.JobRequest) []string {
	t.Helper()
	eng := dispersion.Engine{Seed: req.Seed, Experiment: req.Experiment}
	var lines []string
	err := eng.Run(context.Background(), dispersion.Job{
		Process:    req.Process,
		Spec:       req.Spec,
		Origin:     req.Origin,
		Trials:     req.Trials,
		FirstTrial: req.FirstTrial,
	}, func(tr dispersion.Trial) error {
		b, err := json.Marshal(sink.Record{Trial: tr.Index, Result: tr.Result})
		if err != nil {
			return err
		}
		lines = append(lines, string(b))
		return nil
	})
	if err != nil {
		t.Fatalf("direct Engine.Run: %v", err)
	}
	return lines
}

// runLines runs the coordinator and renders every delivered trial as
// its JSONL line.
func runLines(ctx context.Context, c *shard.Coordinator, req server.JobRequest) ([]string, error) {
	var lines []string
	err := c.Run(ctx, req, func(tr dispersion.Trial) error {
		b, err := json.Marshal(sink.Record{Trial: tr.Index, Result: tr.Result})
		if err != nil {
			return err
		}
		lines = append(lines, string(b))
		return nil
	})
	return lines, err
}

// collectLines is runLines for runs that must succeed.
func collectLines(t *testing.T, c *shard.Coordinator, req server.JobRequest) []string {
	t.Helper()
	lines, err := runLines(context.Background(), c, req)
	if err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	return lines
}

// coordMode is one of the coordinator's two modes, run to an output that
// compares byte for byte with a contiguous run's: Run's result lines, or
// RunSummary's merged summary JSON.
type coordMode struct {
	name string
	run  func(ctx context.Context, c *shard.Coordinator, req server.JobRequest) (string, error)
	want func(t *testing.T, req server.JobRequest) string
	// remainder reports that a dead shard job is resubmitted for its
	// undelivered remainder only, not for the whole shard.
	remainder bool
	// interrupt leaves c's checkpoint as a coordinator killed partway
	// through the run would.
	interrupt func(t *testing.T, c *shard.Coordinator, req server.JobRequest)
	// logged renders a finished checkpoint as the run's output.
	logged func(t *testing.T, log []byte) string
}

// modes is the table the coordinator's lifecycle tests run over.
var modes = []coordMode{
	{
		name: "Run",
		run: func(ctx context.Context, c *shard.Coordinator, req server.JobRequest) (string, error) {
			lines, err := runLines(ctx, c, req)
			return strings.Join(lines, "\n"), err
		},
		want: func(t *testing.T, req server.JobRequest) string {
			return strings.Join(direct(t, req), "\n")
		},
		remainder: true,
		interrupt: killRun,
		logged: func(_ *testing.T, log []byte) string {
			return strings.Join(strings.Fields(strings.TrimSpace(string(log))), "\n")
		},
	},
	{
		name: "RunSummary",
		run: func(ctx context.Context, c *shard.Coordinator, req server.JobRequest) (string, error) {
			sum, err := c.RunSummary(ctx, req)
			if err != nil {
				return "", err
			}
			b, err := json.Marshal(sum)
			return string(b), err
		},
		want: func(t *testing.T, req server.JobRequest) string {
			return string(directSummary(t, req))
		},
		interrupt: cutSummaryLog,
		logged:    mergeSummaryLog,
	},
}

// killRun aborts a Run from its callback after 11 deliveries, simulating
// a kill mid-run.
func killRun(t *testing.T, c *shard.Coordinator, req server.JobRequest) {
	t.Helper()
	killed := errors.New("killed")
	seen := 0
	err := c.Run(context.Background(), req, func(dispersion.Trial) error {
		if seen++; seen == 11 {
			return killed
		}
		return nil
	})
	if !errors.Is(err, killed) {
		t.Fatalf("killed run returned %v", err)
	}
}

// The acceptance path: a K-shard coordinator run over live servers is
// byte-identical to a single contiguous Engine.Run, for K ∈ {1, 3, 7}.
func TestCoordinatorMatchesEngine(t *testing.T) {
	servers := newServers(t, 2)
	req := server.JobRequest{
		Process: "parallel", Spec: "torus:8x8", Trials: 23, Seed: 5, Experiment: 2,
	}
	want := direct(t, req)
	for _, k := range []int{1, 3, 7} {
		c := &shard.Coordinator{Servers: servers, Shards: k}
		if got := collectLines(t, c, req); !reflect.DeepEqual(got, want) {
			t.Fatalf("K=%d: sharded run diverged from contiguous Engine.Run (%d vs %d lines)",
				k, len(got), len(want))
		}
	}
}

// record=true result lines carry whole trajectories and run past the
// coordinator's stream reader; they must still arrive whole and in
// order, byte-identical to Engine.Run's.
func TestCoordinatorStreamsLinesLongerThanReader(t *testing.T) {
	req := server.JobRequest{Process: "sequential", Spec: "complete:2048", Trials: 4, Seed: 5,
		Options: server.Options{Record: true}}
	eng := dispersion.Engine{Seed: req.Seed}
	var want []string
	err := eng.Run(context.Background(), dispersion.Job{
		Process: req.Process, Spec: req.Spec, Trials: req.Trials, Options: req.Options.Build(),
	}, func(tr dispersion.Trial) error {
		b, err := json.Marshal(sink.Record{Trial: tr.Index, Result: tr.Result})
		want = append(want, string(b))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range want {
		if len(line) <= shard.LineReaderSize {
			t.Fatalf("line %d is %d bytes, not longer than the %d-byte reader", i, len(line), shard.LineReaderSize)
		}
	}
	c := &shard.Coordinator{Servers: newServers(t, 2), Shards: 2}
	if got := collectLines(t, c, req); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded record=true run diverged from Engine.Run: %d lines, want %d", len(got), len(want))
	}
}

// A logical job that is itself offset (FirstTrial > 0) shards correctly
// too: shards of shards are still just ranges.
func TestCoordinatorOffsetLogicalJob(t *testing.T) {
	servers := newServers(t, 1)
	whole := server.JobRequest{
		Process: "sequential", Spec: "complete:32", Trials: 20, Seed: 9,
	}
	wantAll := direct(t, whole)
	off := whole
	off.FirstTrial, off.Trials = 6, 11
	c := &shard.Coordinator{Servers: servers, Shards: 3}
	if got := collectLines(t, c, off); !reflect.DeepEqual(got, wantAll[6:17]) {
		t.Fatal("offset sharded run diverged from the matching slice of the contiguous run")
	}
}

// With a checkpoint configured, the log ends up holding exactly the
// merged result set, and an untouched rerun replays it without
// resubmitting anything.
func TestCheckpointHoldsMergedResults(t *testing.T) {
	servers := newServers(t, 2)
	ckpt := filepath.Join(t.TempDir(), "run.jsonl")
	req := server.JobRequest{
		Process: "uniform", Spec: "complete:24", Trials: 17, Seed: 3, Experiment: 1,
	}
	want := direct(t, req)
	c := &shard.Coordinator{Servers: servers, Shards: 3, Checkpoint: ckpt}
	if got := collectLines(t, c, req); !reflect.DeepEqual(got, want) {
		t.Fatal("checkpointed run diverged")
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Fields(strings.TrimSpace(string(data))); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint file holds %d lines diverging from the run", len(got))
	}

	// Replay-only rerun: point the coordinator at a dead server so any
	// resubmission would fail loudly.
	c2 := &shard.Coordinator{Servers: []string{"http://127.0.0.1:1"}, Shards: 3, Checkpoint: ckpt, Retries: 1}
	if got := collectLines(t, c2, req); !reflect.DeepEqual(got, want) {
		t.Fatal("checkpoint replay diverged")
	}
}

// Killing the coordinator mid-run and resuming from its checkpoint still
// produces the exact contiguous output, computing only what is missing,
// and a torn final log line is dropped.
func TestCheckpointResumeAfterKill(t *testing.T) {
	servers := newServers(t, 2)
	req := server.JobRequest{
		Process: "parallel", Spec: "complete:48", Trials: 30, Seed: 11, Experiment: 4,
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "run.jsonl")
			want := mode.want(t, req)

			// First run: kill it partway. Then corrupt the log with a torn
			// final line, simulating a crash mid-append.
			mode.interrupt(t, &shard.Coordinator{Servers: servers, Shards: 3, Checkpoint: ckpt}, req)
			f, err := os.OpenFile(ckpt, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(`{"trial":999,"res`); err != nil {
				t.Fatal(err)
			}
			f.Close()

			// Resume in a fresh coordinator (a new process would look like
			// this): replayed prefix + computed rest must equal the
			// contiguous run.
			c := &shard.Coordinator{Servers: servers, Shards: 3, Checkpoint: ckpt}
			got, err := mode.run(context.Background(), c, req)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if got != want {
				t.Fatal("resumed run diverged from contiguous Engine.Run")
			}
			data, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if got := mode.logged(t, data); got != want {
				t.Fatal("checkpoint after resume diverged from contiguous run")
			}
		})
	}
}

// A checkpoint that belongs to a different logical job — same trial
// indices but another seed, or another trial range — is rejected via its
// .meta sidecar instead of silently merging foreign results.
func TestCheckpointMismatchRejected(t *testing.T) {
	servers := newServers(t, 1)
	ckpt := filepath.Join(t.TempDir(), "run.jsonl")
	a := server.JobRequest{Process: "parallel", Spec: "complete:16", Trials: 6, Seed: 1}
	c := &shard.Coordinator{Servers: servers, Checkpoint: ckpt}
	if err := c.Run(context.Background(), a, nil); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*server.JobRequest){
		"seed":        func(r *server.JobRequest) { r.Seed = 2 },
		"first_trial": func(r *server.JobRequest) { r.FirstTrial = 3 },
		"spec":        func(r *server.JobRequest) { r.Spec = "complete:17" },
		"options":     func(r *server.JobRequest) { r.Options.Lazy = true },
	} {
		b := a
		mutate(&b)
		if err := c.Run(context.Background(), b, nil); err == nil {
			t.Errorf("checkpoint of a different %s was accepted", name)
		}
	}
	// A log with records but no identifying sidecar is rejected too.
	if err := os.Remove(ckpt + ".meta"); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background(), a, nil); err == nil {
		t.Error("unidentifiable checkpoint was accepted")
	}
}

// cutOnce wraps a server handler and kills the connection of the first
// results stream after a few lines, exercising the coordinator's
// reconnect-with-?from= path.
type cutOnce struct {
	inner    http.Handler
	cutAfter int

	mu      sync.Mutex
	tripped bool
}

func (c *cutOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/results") {
		c.mu.Lock()
		first := !c.tripped
		c.tripped = true
		c.mu.Unlock()
		if first {
			c.inner.ServeHTTP(&cutWriter{ResponseWriter: w, budget: c.cutAfter}, r)
			return
		}
	}
	c.inner.ServeHTTP(w, r)
}

// cutWriter aborts the connection once budget newlines have been sent.
type cutWriter struct {
	http.ResponseWriter
	budget int
}

func (w *cutWriter) Write(p []byte) (int, error) {
	for _, b := range p {
		if b == '\n' {
			if w.budget--; w.budget < 0 {
				panic(http.ErrAbortHandler)
			}
		}
	}
	return w.ResponseWriter.Write(p)
}

// Flush keeps the wrapped writer streaming line by line.
func (w *cutWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// A results stream cut mid-flight by the transport is resumed against
// the same job with ?from=, with no gaps, duplicates, or recomputation
// visible to the caller.
func TestRetryReconnectsDroppedStream(t *testing.T) {
	m, err := server.NewManager(server.ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(&cutOnce{inner: server.New(m), cutAfter: 4})
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	req := server.JobRequest{Process: "sequential", Spec: "complete:32", Trials: 12, Seed: 7}
	c := &shard.Coordinator{Servers: []string{ts.URL}, Shards: 1}
	if got := collectLines(t, c, req); !reflect.DeepEqual(got, direct(t, req)) {
		t.Fatal("run over a dropped-and-resumed stream diverged")
	}
}

// A shard whose job is cancelled server-side — the job ends
// "cancelled", not with a transport error — is resubmitted: by Run with
// FirstTrial advanced past the results already delivered, by RunSummary
// as the whole shard.
func TestRetryResubmitsDeadJob(t *testing.T) {
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			// A single engine worker and a few thousand trials keep the job
			// running for a long, comfortable window, so the cancel below
			// cannot race its completion.
			m, err := server.NewManager(server.ManagerOptions{EngineWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(server.New(m))
			t.Cleanup(func() {
				ts.Close()
				m.Close()
			})
			req := server.JobRequest{
				Process: "sequential", Spec: "complete:256", Trials: 1200, Seed: 13,
			}

			// Cancel the first submitted job once it has produced some
			// results.
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					for _, st := range m.List() {
						if st.State == server.StateRunning && st.Completed >= 3 {
							j, _ := m.Get(st.ID)
							j.Cancel()
							return
						}
					}
					time.Sleep(time.Millisecond)
				}
			}()

			c := &shard.Coordinator{Servers: []string{ts.URL}, Shards: 1}
			got, err := mode.run(context.Background(), c, req)
			<-done
			if err != nil {
				t.Fatalf("coordinator run: %v", err)
			}
			if got != mode.want(t, req) {
				t.Fatal("run with a cancelled-and-resubmitted shard diverged")
			}
			// The recovery really was a second job, covering what the mode
			// resubmits.
			jobs := m.List()
			if len(jobs) < 2 {
				t.Fatalf("expected a resubmission, saw %d jobs", len(jobs))
			}
			resub := jobs[len(jobs)-1].Request
			if mode.remainder {
				if resub.FirstTrial == 0 || resub.Trials == req.Trials {
					t.Fatalf("resubmission did not advance past delivered results: first_trial=%d trials=%d",
						resub.FirstTrial, resub.Trials)
				}
			} else if resub.FirstTrial != req.FirstTrial || resub.Trials != req.Trials {
				t.Fatalf("resubmission did not cover the whole shard: first_trial=%d trials=%d",
					resub.FirstTrial, resub.Trials)
			}
		})
	}
}

// failTrailer rewrites a "done" results trailer into "failed" after the
// inner handler returns (trailers are flushed afterwards), modelling a
// job that delivered every trial and then died terminally — e.g. a
// server-side archive close failure after the last result.
type failTrailer struct {
	inner http.Handler
}

func (f failTrailer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.inner.ServeHTTP(w, r)
	if strings.HasSuffix(r.URL.Path, "/results") &&
		w.Header().Get(server.TrailerJobState) == string(server.StateDone) {
		w.Header().Set(server.TrailerJobState, string(server.StateFailed))
	}
}

// A shard whose every trial was delivered is complete no matter what
// terminal label the job ends with: no zero-trial resubmission, no
// retry exhaustion, just the full result set.
func TestFullyDeliveredShardSurvivesFailedLabel(t *testing.T) {
	m, err := server.NewManager(server.ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(failTrailer{inner: server.New(m)})
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	req := server.JobRequest{Process: "parallel", Spec: "complete:16", Trials: 8, Seed: 4}
	c := &shard.Coordinator{Servers: []string{ts.URL}, Shards: 2, Retries: 2}
	if got := collectLines(t, c, req); !reflect.DeepEqual(got, direct(t, req)) {
		t.Fatal("run against failed-labelled complete jobs diverged")
	}
}

// A dead server in the pool is routed around: the shard rotates to the
// next server on resubmission.
func TestRetryRotatesDeadServer(t *testing.T) {
	live := newServers(t, 1)
	req := server.JobRequest{Process: "parallel", Spec: "complete:16", Trials: 9, Seed: 2}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			c := &shard.Coordinator{Servers: []string{"http://127.0.0.1:1", live[0]}, Shards: 2}
			got, err := mode.run(context.Background(), c, req)
			if err != nil {
				t.Fatalf("coordinator run: %v", err)
			}
			if got != mode.want(t, req) {
				t.Fatal("run with a dead server in the pool diverged")
			}
		})
	}
}

// A shard that can make no progress anywhere exhausts its retry budget
// and surfaces an error instead of spinning forever.
func TestRetriesExhausted(t *testing.T) {
	req := server.JobRequest{Process: "parallel", Spec: "complete:8", Trials: 4, Seed: 1}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			c := &shard.Coordinator{Servers: []string{"http://127.0.0.1:1"}, Retries: 2}
			_, err := mode.run(context.Background(), c, req)
			if err == nil || !strings.Contains(err.Error(), "no progress after 2 attempts") {
				t.Fatalf("err = %v, want retry exhaustion", err)
			}
		})
	}
}

// Malformed logical jobs are rejected locally before anything is
// submitted; a cancelled context aborts the run.
func TestValidationAndCancellation(t *testing.T) {
	servers := newServers(t, 1)
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			run := func(ctx context.Context, c *shard.Coordinator, req server.JobRequest) error {
				_, err := mode.run(ctx, c, req)
				return err
			}
			c := &shard.Coordinator{Servers: servers}
			if err := run(context.Background(), c, server.JobRequest{Process: "nope", Spec: "complete:8", Trials: 1}); err == nil {
				t.Fatal("unknown process accepted")
			}
			if err := run(context.Background(), c, server.JobRequest{Process: "parallel", Spec: "complete:8"}); err == nil {
				t.Fatal("zero trials accepted")
			}
			if err := run(context.Background(), &shard.Coordinator{}, server.JobRequest{Process: "parallel", Spec: "complete:8", Trials: 1}); err == nil {
				t.Fatal("empty server pool accepted")
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err := run(ctx, c, server.JobRequest{Process: "parallel", Spec: "complete:8", Trials: 4})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}
