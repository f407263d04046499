package shard_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dispersion"
	"dispersion/agg"
	"dispersion/server"
	"dispersion/shard"
)

// directSummary folds the logical job's trials into a summary with one
// contiguous Engine.Run and returns its canonical JSON.
func directSummary(t *testing.T, req server.JobRequest) []byte {
	t.Helper()
	eng := dispersion.Engine{Seed: req.Seed, Experiment: req.Experiment, ReuseResults: true}
	sum := agg.NewSummary()
	err := eng.Run(context.Background(), dispersion.Job{
		Process:    req.Process,
		Spec:       req.Spec,
		Origin:     req.Origin,
		Trials:     req.Trials,
		FirstTrial: req.FirstTrial,
		Options:    req.Options.Build(),
	}, func(tr dispersion.Trial) error {
		sum.Add(tr.Result)
		return nil
	})
	if err != nil {
		t.Fatalf("direct Engine.Run: %v", err)
	}
	b, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runSummaryJSON runs the coordinator's sketch-merge mode and marshals
// the merged summary.
func runSummaryJSON(t *testing.T, c *shard.Coordinator, req server.JobRequest) []byte {
	t.Helper()
	sum, err := c.RunSummary(context.Background(), req)
	if err != nil {
		t.Fatalf("RunSummary: %v", err)
	}
	b, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// summaryLogKeys are the keys of every summary log record. Logs written
// with them must keep resuming, so they are pinned here.
var summaryLogKeys = []string{"first", "shard", "summary", "trials"}

// mergeSummaryLog checks that every record of a summary log carries
// exactly summaryLogKeys and returns the JSON of the merge of the
// logged shard summaries.
func mergeSummaryLog(t *testing.T, log []byte) string {
	t.Helper()
	merged := agg.NewSummary()
	for _, line := range strings.Split(strings.TrimSpace(string(log)), "\n") {
		var rec map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("summary log line %q: %v", line, err)
		}
		if keys := slices.Sorted(maps.Keys(rec)); !slices.Equal(keys, summaryLogKeys) {
			t.Fatalf("summary log record has keys %v, want %v", keys, summaryLogKeys)
		}
		var s agg.Summary
		if err := json.Unmarshal(rec["summary"], &s); err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(&s); err != nil {
			t.Fatal(err)
		}
	}
	b, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// cutSummaryLog runs RunSummary to completion, then cuts its log back to
// the first shard record: the footprint of a coordinator killed after
// one shard.
func cutSummaryLog(t *testing.T, c *shard.Coordinator, req server.JobRequest) {
	t.Helper()
	runSummaryJSON(t, c, req)
	data, err := os.ReadFile(c.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.Checkpoint, data[:bytes.IndexByte(data, '\n')+1], 0o644); err != nil {
		t.Fatal(err)
	}
}

// The sketch-merge acceptance path: shard-merged summaries are
// byte-identical to the contiguous run's summary, for K ∈ {1, 3, 7}.
func TestRunSummaryMatchesContiguous(t *testing.T) {
	servers := newServers(t, 2)
	req := server.JobRequest{
		Process: "parallel", Spec: "torus:8x8", Trials: 23, Seed: 5, Experiment: 2,
	}
	want := directSummary(t, req)
	for _, k := range []int{1, 3, 7} {
		c := &shard.Coordinator{Servers: servers, Shards: k}
		if got := runSummaryJSON(t, c, req); !bytes.Equal(got, want) {
			t.Fatalf("K=%d: merged summary differs from contiguous run:\n%s\n%s", k, got, want)
		}
	}
}

// An offset logical job (FirstTrial > 0) summarizes its exact slice.
func TestRunSummaryOffsetLogicalJob(t *testing.T) {
	servers := newServers(t, 1)
	req := server.JobRequest{
		Process: "sequential", Spec: "complete:32", Trials: 11, FirstTrial: 6, Seed: 9,
	}
	want := directSummary(t, req)
	c := &shard.Coordinator{Servers: servers, Shards: 3}
	if got := runSummaryJSON(t, c, req); !bytes.Equal(got, want) {
		t.Fatal("offset sharded summary diverged from the contiguous slice's summary")
	}
}

// A summary checkpoint resumes: with only a durable prefix of shard
// records, a rerun recomputes the missing shards and merges to the
// identical summary — and a full WAL replays without touching servers.
func TestRunSummaryCheckpointResume(t *testing.T) {
	servers := newServers(t, 2)
	ckpt := filepath.Join(t.TempDir(), "summary.jsonl")
	req := server.JobRequest{
		Process: "uniform", Spec: "complete:24", Trials: 17, Seed: 3, Experiment: 1,
	}
	c := &shard.Coordinator{Servers: servers, Shards: 3, Checkpoint: ckpt}
	want := runSummaryJSON(t, c, req)

	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			lines++
		}
	}
	if lines != 3 {
		t.Fatalf("summary WAL holds %d records, want 3", lines)
	}
	if got := mergeSummaryLog(t, data); got != string(want) {
		t.Fatal("summary WAL records do not merge to the run's summary")
	}

	// Truncate the WAL to its first record — the footprint of a
	// coordinator killed after one shard — and rerun.
	firstNL := bytes.IndexByte(data, '\n')
	if err := os.WriteFile(ckpt, data[:firstNL+1], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := runSummaryJSON(t, c, req); !bytes.Equal(got, want) {
		t.Fatal("resumed summary differs from the uninterrupted one")
	}

	// A complete WAL replays without any live server.
	offline := &shard.Coordinator{Servers: []string{"http://127.0.0.1:1"}, Shards: 3, Checkpoint: ckpt, Retries: 1}
	if got := runSummaryJSON(t, offline, req); !bytes.Equal(got, want) {
		t.Fatal("WAL replay differs from the live run")
	}
}

// A WAL written under one shard count is rejected under another, and
// the meta sidecar rejects a different request outright.
func TestRunSummaryCheckpointMismatch(t *testing.T) {
	servers := newServers(t, 1)
	ckpt := filepath.Join(t.TempDir(), "summary.jsonl")
	req := server.JobRequest{
		Process: "sequential", Spec: "complete:16", Trials: 12, Seed: 7,
	}
	c := &shard.Coordinator{Servers: servers, Shards: 3, Checkpoint: ckpt}
	runSummaryJSON(t, c, req)

	// Same request, different split: the WAL's shard ranges no longer
	// exist. (The sidecar pins the request, not the shard count.)
	c2 := &shard.Coordinator{Servers: servers, Shards: 2, Checkpoint: ckpt}
	if _, err := c2.RunSummary(context.Background(), req); err == nil || !strings.Contains(err.Error(), "split") {
		t.Fatalf("shard-count mismatch not rejected: %v", err)
	}

	// Different request: rejected by the sidecar.
	other := req
	other.Seed = 99
	if _, err := c.RunSummary(context.Background(), other); err == nil || !strings.Contains(err.Error(), "different job request") {
		t.Fatalf("request mismatch not rejected: %v", err)
	}
}

// queueWatch counts the summary long polls that answer before their job
// ends — the answers that carry a Retry-After hint — and calls release
// once it has seen after of them.
type queueWatch struct {
	inner   http.Handler
	after   int
	release func()

	mu    sync.Mutex
	waits int
}

func (h *queueWatch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.inner.ServeHTTP(w, r)
	if strings.HasSuffix(r.URL.Path, "/summary") && w.Header().Get("Retry-After") != "" {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.waits++; h.waits == h.after {
			h.release()
		}
	}
}

// A shard job that only waits its turn has not failed. With the server's
// one run slot held by a long job and its long poll bounded at 20 ms,
// the shard's polls keep answering "queued"; they must not consume the
// retry budget, and the run completes once the slot frees up.
func TestRunSummaryWaitsForQueuedShard(t *testing.T) {
	m, err := server.NewManager(server.ManagerOptions{MaxConcurrent: 1, EngineWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := m.Submit(server.JobRequest{
		Process: "sequential", Spec: "complete:256", Trials: 1 << 20, Seed: 1, SummaryOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for blocker.Status().State != server.StateRunning {
		time.Sleep(time.Millisecond)
	}
	srv := server.New(m)
	srv.SummaryMaxWait = 20 * time.Millisecond
	// Free the slot only once the shard has been told to wait as many
	// times as its retry budget allows failures.
	const retries = 2
	watch := &queueWatch{inner: srv, after: retries, release: blocker.Cancel}
	ts := httptest.NewServer(watch)
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})

	req := server.JobRequest{Process: "sequential", Spec: "complete:12", Trials: 8, Seed: 2}
	c := &shard.Coordinator{Servers: []string{ts.URL}, Shards: 1, Retries: retries, JitterSeed: 1}
	if got := runSummaryJSON(t, c, req); !bytes.Equal(got, directSummary(t, req)) {
		t.Fatal("summary of a shard that waited in the queue diverged")
	}
	watch.mu.Lock()
	defer watch.mu.Unlock()
	if watch.waits < retries {
		t.Fatalf("the shard was told to wait %d times, want at least %d", watch.waits, retries)
	}
}
