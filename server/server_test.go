package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dispersion"
	"dispersion/server"
	"dispersion/sink"
)

// newServer starts an httptest server over a fresh manager, both torn
// down with the test.
func newServer(t *testing.T, opts server.ManagerOptions) (*httptest.Server, *server.Manager) {
	t.Helper()
	m, err := server.NewManager(opts)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	ts := httptest.NewServer(server.New(m))
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	return ts, m
}

// submit posts a job request and decodes the returned status.
func submit(t *testing.T, ts *httptest.Server, req server.JobRequest) server.Status {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/jobs: status %d: %s", resp.StatusCode, msg)
	}
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if got, want := resp.Header.Get("Location"), "/v1/jobs/"+st.ID; got != want {
		t.Errorf("Location = %q, want %q", got, want)
	}
	return st
}

// direct runs the same job straight through the engine and returns the
// expected NDJSON lines.
func direct(t *testing.T, req server.JobRequest) []string {
	t.Helper()
	eng := dispersion.Engine{Seed: req.Seed, Experiment: req.Experiment}
	var lines []string
	err := eng.Run(context.Background(), dispersion.Job{
		Process: req.Process,
		Spec:    req.Spec,
		Origin:  req.Origin,
		Trials:  req.Trials,
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

// stream reads the job's NDJSON results from the given index to EOF.
func stream(t *testing.T, ts *httptest.Server, id string, from int) []string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/results?from=%d", ts.URL, id, from))
	if err != nil {
		t.Fatalf("GET results: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET results: status %d: %s", resp.StatusCode, msg)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	return lines
}

// The core acceptance path: submitted jobs stream NDJSON results
// bit-identical to a direct Engine.Run with the same coordinates.
func TestSubmitStreamMatchesEngine(t *testing.T) {
	ts, _ := newServer(t, server.ManagerOptions{})
	req := server.JobRequest{
		Process: "parallel", Spec: "torus:8x8", Trials: 12, Seed: 9, Experiment: 3,
	}
	st := submit(t, ts, req)
	got := stream(t, ts, st.ID, 0)
	want := direct(t, req)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed NDJSON diverged from direct Engine.Run\n got %d lines\nwant %d lines", len(got), len(want))
	}

	// After the stream drained, the job must be done with full progress.
	final := getStatus(t, ts, st.ID)
	if final.State != server.StateDone || final.Completed != req.Trials {
		t.Errorf("final status = %s completed %d, want done %d", final.State, final.Completed, req.Trials)
	}
}

// Reconnecting mid-stream with ?from= resumes without gaps or duplicates:
// any prefix + resumed suffix equals the uninterrupted stream.
func TestResumeAcrossReconnects(t *testing.T) {
	ts, _ := newServer(t, server.ManagerOptions{})
	req := server.JobRequest{
		Process: "sequential", Spec: "complete:64", Trials: 20, Seed: 4, Experiment: 1,
	}
	st := submit(t, ts, req)
	want := direct(t, req)

	// Read the first few lines, then drop the connection mid-stream.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatalf("GET results: %v", err)
	}
	const cut = 7
	var prefix []string
	sc := bufio.NewScanner(resp.Body)
	for len(prefix) < cut && sc.Scan() {
		prefix = append(prefix, sc.Text())
	}
	resp.Body.Close()
	if len(prefix) != cut {
		t.Fatalf("read %d lines before disconnect, want %d", len(prefix), cut)
	}

	// Resume exactly where the client left off.
	suffix := stream(t, ts, st.ID, cut)
	if got := append(append([]string(nil), prefix...), suffix...); !reflect.DeepEqual(got, want) {
		t.Fatalf("prefix+resume diverged from uninterrupted stream (%d+%d vs %d lines)",
			len(prefix), len(suffix), len(want))
	}

	// A full re-read after completion is identical too (late consumer).
	if got := stream(t, ts, st.ID, 0); !reflect.DeepEqual(got, want) {
		t.Fatal("post-completion re-read diverged")
	}
}

// DELETE cancels a running job: the state becomes cancelled, progress
// stops short of Trials, and open result streams terminate.
func TestCancel(t *testing.T) {
	ts, _ := newServer(t, server.ManagerOptions{})
	// A job big enough to still be running when the cancel lands.
	req := server.JobRequest{
		Process: "sequential", Spec: "complete:512", Trials: 1 << 30, Seed: 1,
	}
	st := submit(t, ts, req)

	// Wait for at least one result so the job is demonstrably running.
	if lines := streamPrefix(t, ts, st.ID, 1); len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}

	creq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	var final server.Status
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatalf("decode cancel response: %v", err)
	}
	resp.Body.Close()
	if final.State != server.StateCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", final.State)
	}
	if final.Completed >= req.Trials {
		t.Errorf("cancelled job completed all %d trials", final.Completed)
	}

	// The results stream of a cancelled job ends instead of hanging.
	done := make(chan []string, 1)
	go func() { done <- stream(t, ts, st.ID, 0) }()
	select {
	case lines := <-done:
		if len(lines) != final.Completed {
			t.Errorf("drained %d lines from cancelled job, status says %d", len(lines), final.Completed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("results stream of a cancelled job did not terminate")
	}

	// Cancelling again is idempotent.
	creq2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp2, err := http.DefaultClient.Do(creq2)
	if err != nil {
		t.Fatalf("second DELETE: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("second DELETE status = %d, want 200", resp2.StatusCode)
	}
}

// streamPrefix reads the first n NDJSON lines and drops the connection.
func streamPrefix(t *testing.T, ts *httptest.Server, id string, n int) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatalf("GET results: %v", err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for len(lines) < n && sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines
}

func getStatus(t *testing.T, ts *httptest.Server, id string) server.Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	defer resp.Body.Close()
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// Malformed submissions are rejected synchronously with a 400 and a JSON
// error body; unknown jobs give 404s.
func TestValidationAndErrors(t *testing.T) {
	ts, _ := newServer(t, server.ManagerOptions{})
	bad := []string{
		`{"process":"nope","spec":"complete:8","trials":1}`,                  // unknown process
		`{"process":"parallel","trials":1}`,                                  // no spec
		`{"process":"parallel","spec":"blob:9","trials":1}`,                  // unknown family
		`{"process":"parallel","spec":"complete:8","trials":0}`,              // no trials
		`{"process":"parallel","spec":"complete:8","trials":1,"bogus":true}`, // unknown field
		`not json`,
	}
	for _, body := range bad {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		var apiErr struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Errorf("body %s: non-JSON error response: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
		if apiErr.Error == "" {
			t.Errorf("body %s: empty error message", body)
		}
	}
	// Rejected submissions leave no job behind.
	resp, _ := http.Get(ts.URL + "/v1/jobs")
	var list []server.Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	resp.Body.Close()
	if len(list) != 0 {
		t.Errorf("rejected submissions created %d jobs", len(list))
	}

	for _, path := range []string{"/v1/jobs/j999999", "/v1/jobs/j999999/results"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// from= validation.
	st := submit(t, ts, server.JobRequest{Process: "parallel", Spec: "complete:8", Trials: 2})
	for _, q := range []string{"from=-1", "from=x", "from=3"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/results?" + q)
		if err != nil {
			t.Fatalf("GET ?%s: %v", q, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET ?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// The list endpoint reports every submission in order; the processes
// endpoint names the registry.
func TestListAndProcesses(t *testing.T) {
	ts, m := newServer(t, server.ManagerOptions{MaxConcurrent: 4})
	var ids []string
	for i := 0; i < 3; i++ {
		st := submit(t, ts, server.JobRequest{
			Process: "uniform", Spec: "path:16", Trials: 2, Seed: uint64(i),
		})
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("manager lost job %s", id)
		}
		j.Wait(context.Background())
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	var list []server.Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	resp.Body.Close()
	if len(list) != len(ids) {
		t.Fatalf("list has %d jobs, want %d", len(list), len(ids))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s (submission order)", i, st.ID, ids[i])
		}
		if st.State != server.StateDone || st.Completed != 2 {
			t.Errorf("list[%d]: state %s completed %d, want done 2", i, st.State, st.Completed)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/processes")
	if err != nil {
		t.Fatalf("GET /v1/processes: %v", err)
	}
	var procs struct {
		Processes  []string `json:"processes"`
		GraphKinds []string `json:"graph_kinds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&procs); err != nil {
		t.Fatalf("decode processes: %v", err)
	}
	resp.Body.Close()
	if !reflect.DeepEqual(procs.Processes, dispersion.Processes()) {
		t.Errorf("processes = %v", procs.Processes)
	}
	if len(procs.GraphKinds) == 0 {
		t.Error("no graph kinds reported")
	}
}

// With a results directory configured, the manager archives every job as
// JSONL whose records match the in-memory stream exactly.
func TestJSONLPersistence(t *testing.T) {
	dir := t.TempDir()
	ts, m := newServer(t, server.ManagerOptions{ResultsDir: dir})
	req := server.JobRequest{
		Process: "ct-uniform", Spec: "complete:24", Trials: 6, Seed: 2, Experiment: 8,
	}
	st := submit(t, ts, req)
	j, _ := m.Get(st.ID)
	if final := j.Wait(context.Background()); final.State != server.StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	f, err := os.Open(filepath.Join(dir, st.ID+".jsonl"))
	if err != nil {
		t.Fatalf("open archive: %v", err)
	}
	defer f.Close()
	archived, err := sink.ReadJSONL(f)
	if err != nil {
		t.Fatalf("read archive: %v", err)
	}
	want := direct(t, req)
	if len(archived) != len(want) {
		t.Fatalf("archive has %d records, want %d", len(archived), len(want))
	}
	for i, tr := range archived {
		b, _ := json.Marshal(sink.Record{Trial: tr.Index, Result: tr.Result})
		if string(b) != want[i] {
			t.Errorf("archive record %d diverged from direct run", i)
		}
	}
}

// Jobs queue behind the bounded worker pool but all finish, and options
// round-trip through the JSON form (a lazy job differs from its eager
// twin but matches a direct lazy run).
func TestWorkerPoolAndOptions(t *testing.T) {
	ts, m := newServer(t, server.ManagerOptions{MaxConcurrent: 1, EngineWorkers: 2})
	eager := submit(t, ts, server.JobRequest{
		Process: "sequential", Spec: "complete:32", Trials: 5, Seed: 3,
	})
	lazy := submit(t, ts, server.JobRequest{
		Process: "sequential", Spec: "complete:32", Trials: 5, Seed: 3,
		Options: server.Options{Lazy: true},
	})
	for _, id := range []string{eager.ID, lazy.ID} {
		j, _ := m.Get(id)
		if final := j.Wait(context.Background()); final.State != server.StateDone {
			t.Fatalf("job %s finished %s: %s", id, final.State, final.Error)
		}
	}
	eagerLines := stream(t, ts, eager.ID, 0)
	lazyLines := stream(t, ts, lazy.ID, 0)
	if reflect.DeepEqual(eagerLines, lazyLines) {
		t.Error("lazy option had no effect on results")
	}

	eng := dispersion.Engine{Seed: 3, Workers: 7} // worker count must not matter
	var want []string
	err := eng.Run(context.Background(), dispersion.Job{
		Process: "sequential", Spec: "complete:32", Trials: 5,
		Options: []dispersion.Option{dispersion.WithLazy()},
	}, func(tr dispersion.Trial) error {
		b, _ := json.Marshal(sink.Record{Trial: tr.Index, Result: tr.Result})
		want = append(want, string(b))
		return nil
	})
	if err != nil {
		t.Fatalf("direct lazy run: %v", err)
	}
	if !reflect.DeepEqual(lazyLines, want) {
		t.Error("lazy job diverged from direct lazy Engine.Run")
	}
}

// The variant-workload option fields (settle_param, capacity) round-trip
// through the JSON form: a server job streams bit-identically to a direct
// engine run with the equivalent functional options.
func TestVariantOptionsRoundTrip(t *testing.T) {
	ts, m := newServer(t, server.ManagerOptions{})
	cases := []struct {
		req  server.JobRequest
		opts []dispersion.Option
	}{
		{
			req: server.JobRequest{
				Process: "sequential-geom", Spec: "complete:16", Trials: 6, Seed: 13,
				Options: server.Options{SettleParam: 0.25},
			},
			opts: []dispersion.Option{dispersion.WithSettleParam(0.25)},
		},
		{
			req: server.JobRequest{
				Process: "capacity", Spec: "star:8", Trials: 6, Seed: 13,
				Options: server.Options{Capacity: 3, Particles: 10},
			},
			opts: []dispersion.Option{dispersion.WithCapacity(3), dispersion.WithParticles(10)},
		},
		{
			req: server.JobRequest{
				Process: "sequential", Spec: "wcomplete:16,0.5", Trials: 6, Seed: 13,
				Options: server.Options{Batch: 4},
			},
			opts: []dispersion.Option{dispersion.WithBatch(4)},
		},
		{
			req: server.JobRequest{
				Process: "capacity", Spec: "path:4", Trials: 6, Seed: 13,
				Options: server.Options{Capacities: []int{2, 1, 3, 1}},
			},
			opts: []dispersion.Option{dispersion.WithCapacities([]int{2, 1, 3, 1})},
		},
	}
	for _, tc := range cases {
		st := submit(t, ts, tc.req)
		j, _ := m.Get(st.ID)
		if final := j.Wait(context.Background()); final.State != server.StateDone {
			t.Fatalf("%s job finished %s: %s", tc.req.Process, final.State, final.Error)
		}
		got := stream(t, ts, st.ID, 0)

		eng := dispersion.Engine{Seed: tc.req.Seed}
		var want []string
		err := eng.Run(context.Background(), dispersion.Job{
			Process: tc.req.Process, Spec: tc.req.Spec, Trials: tc.req.Trials,
			Options: tc.opts,
		}, func(tr dispersion.Trial) error {
			b, _ := json.Marshal(sink.Record{Trial: tr.Index, Result: tr.Result})
			want = append(want, string(b))
			return nil
		})
		if err != nil {
			t.Fatalf("direct %s run: %v", tc.req.Process, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: server stream diverged from the direct engine run", tc.req.Process)
		}
	}

	// Out-of-range parameters fail the job at run time with a clear error.
	st := submit(t, ts, server.JobRequest{
		Process: "sequential-geom", Spec: "complete:8", Trials: 1, Seed: 1,
		Options: server.Options{SettleParam: 2},
	})
	j, _ := m.Get(st.ID)
	if final := j.Wait(context.Background()); final.State != server.StateFailed {
		t.Fatalf("out-of-range settle_param finished %s, want failed", final.State)
	}

	// A batch request against a process with no batched form fails too.
	st = submit(t, ts, server.JobRequest{
		Process: "parallel", Spec: "complete:8", Trials: 1, Seed: 1,
		Options: server.Options{Batch: 8},
	})
	j, _ = m.Get(st.ID)
	if final := j.Wait(context.Background()); final.State != server.StateFailed {
		t.Fatalf("batched parallel finished %s, want failed", final.State)
	}
}

// Once Close has begun, submissions are rejected with ErrClosed instead
// of racing the shutdown, and job IDs are unique across manager
// restarts so JSONL archives are never truncated by a new run.
func TestCloseFenceAndRestartUniqueIDs(t *testing.T) {
	m1, err := server.NewManager(server.ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := m1.Submit(server.JobRequest{Process: "parallel", Spec: "complete:8", Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()
	if _, err := m1.Submit(server.JobRequest{Process: "parallel", Spec: "complete:8", Trials: 1}); !errors.Is(err, server.ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}

	m2, err := server.NewManager(server.ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	j2, err := m2.Submit(server.JobRequest{Process: "parallel", Spec: "complete:8", Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID() == j2.ID() {
		t.Errorf("restarted manager reused job ID %s", j1.ID())
	}
}

// An offset job (first_trial > 0) is a shard: its stream is
// line-for-line identical to the matching slice of the contiguous run,
// and ?from= stays line-addressed within the shard.
func TestFirstTrialShardMatchesSlice(t *testing.T) {
	ts, _ := newServer(t, server.ManagerOptions{})
	whole := server.JobRequest{
		Process: "parallel", Spec: "torus:8x8", Trials: 12, Seed: 6, Experiment: 2,
	}
	want := direct(t, whole)

	sharded := whole
	sharded.FirstTrial, sharded.Trials = 5, 7
	st := submit(t, ts, sharded)
	if got := stream(t, ts, st.ID, 0); !reflect.DeepEqual(got, want[5:12]) {
		t.Fatal("offset shard diverged from the contiguous run's slice")
	}
	// from=2 is the shard's third line, i.e. trial 7 of the logical run.
	if got := stream(t, ts, st.ID, 2); !reflect.DeepEqual(got, want[7:12]) {
		t.Fatal("?from= within an offset shard diverged")
	}
}

// streamTrailer drains a job's results stream and returns its lines plus
// the X-Job-State trailer observed at EOF.
func streamTrailer(t *testing.T, ts *httptest.Server, id string) ([]string, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatalf("GET results: %v", err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	return lines, resp.Trailer.Get(server.TrailerJobState)
}

// The results stream announces the job's terminal state in an HTTP
// trailer, so a resuming client can tell a completed stream from a dead
// job or a cut connection.
func TestResultsTrailerReportsTerminalState(t *testing.T) {
	ts, m := newServer(t, server.ManagerOptions{})

	done := submit(t, ts, server.JobRequest{
		Process: "parallel", Spec: "complete:16", Trials: 3, Seed: 1,
	})
	if _, state := streamTrailer(t, ts, done.ID); state != string(server.StateDone) {
		t.Errorf("completed job's trailer = %q, want %q", state, server.StateDone)
	}

	failed := submit(t, ts, server.JobRequest{
		Process: "parallel", Spec: "complete:not-a-number", Trials: 1,
	})
	if _, state := streamTrailer(t, ts, failed.ID); state != string(server.StateFailed) {
		t.Errorf("failed job's trailer = %q, want %q", state, server.StateFailed)
	}

	cancelled := submit(t, ts, server.JobRequest{
		Process: "sequential", Spec: "complete:512", Trials: 1 << 30, Seed: 1,
	})
	if lines := streamPrefix(t, ts, cancelled.ID, 1); len(lines) != 1 {
		t.Fatalf("got %d lines before cancel, want 1", len(lines))
	}
	j, _ := m.Get(cancelled.ID)
	j.Cancel()
	j.Wait(context.Background())
	if _, state := streamTrailer(t, ts, cancelled.ID); state != string(server.StateCancelled) {
		t.Errorf("cancelled job's trailer = %q, want %q", state, server.StateCancelled)
	}
}

// A job whose graph spec parses but fails to build surfaces as a failed
// job, not a dead server.
func TestRuntimeFailure(t *testing.T) {
	ts, m := newServer(t, server.ManagerOptions{})
	st := submit(t, ts, server.JobRequest{
		Process: "parallel", Spec: "complete:not-a-number", Trials: 1,
	})
	j, _ := m.Get(st.ID)
	final := j.Wait(context.Background())
	if final.State != server.StateFailed || final.Error == "" {
		t.Fatalf("final = %s %q, want failed with message", final.State, final.Error)
	}
	// Its results stream ends immediately with zero records.
	if lines := stream(t, ts, st.ID, 0); len(lines) != 0 {
		t.Errorf("failed job streamed %d records", len(lines))
	}
}

// A spec that parses but is out of its family's range (cycle:2) fails
// its own job at build time; the manager survives and runs the next job.
func TestOutOfRangeSpecFailsJob(t *testing.T) {
	_, m := newServer(t, server.ManagerOptions{MaxConcurrent: 1})
	ctx := context.Background()
	bad, err := m.Submit(server.JobRequest{Process: "sequential", Spec: "cycle:2", Trials: 1})
	if err != nil {
		t.Fatalf("Submit(cycle:2): %v", err)
	}
	if st := bad.Wait(ctx); st.State != server.StateFailed || !strings.Contains(st.Error, "cycle:2") {
		t.Fatalf("cycle:2 job = %s %q, want failed naming the spec", st.State, st.Error)
	}
	good, err := m.Submit(server.JobRequest{Process: "sequential", Spec: "cycle:8", Trials: 3, Seed: 1})
	if err != nil {
		t.Fatalf("Submit(cycle:8): %v", err)
	}
	if st := good.Wait(ctx); st.State != server.StateDone || st.Completed != 3 {
		t.Fatalf("next job = %s with %d completed, want done/3", st.State, st.Completed)
	}
}

// Manager-level eviction contract: with EvictConsumed, the in-memory
// buffer is dropped exactly when the job is terminal, fully consumed, and
// no consumer is still retained — and not a moment earlier.
func TestManagerEvictConsumed(t *testing.T) {
	_, m := newServer(t, server.ManagerOptions{EvictConsumed: true})
	j, err := m.Submit(server.JobRequest{
		Process: "sequential", Spec: "complete:16", Trials: 6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Two consumers attach; the first drains the stream to its end.
	j.Retain()
	j.Release() // a consumer that reads nothing must not block eviction later
	j.Retain()
	second := j
	second.Retain()
	delivered := 0
	for i := 0; ; i++ {
		if _, ok := j.Next(ctx, i); !ok {
			break
		}
		delivered = i + 1
	}
	j.MarkConsumed(0, delivered)
	st := j.Wait(ctx)
	if st.State != server.StateDone || st.Completed != 6 {
		t.Fatalf("job finished as %s with %d completed, want done/6", st.State, st.Completed)
	}

	// Terminal + consumed, but two consumers still retained: no eviction.
	if st := j.Status(); st.Evicted || st.Resident != 6 {
		t.Fatalf("evicted with consumers attached: evicted=%v resident=%d", st.Evicted, st.Resident)
	}
	j.Release()
	if st := j.Status(); st.Evicted {
		t.Fatal("evicted while one consumer still attached")
	}
	second.Release()
	st = j.Status()
	if !st.Evicted || st.Resident != 0 {
		t.Fatalf("after last release: evicted=%v resident=%d, want true/0", st.Evicted, st.Resident)
	}
	// Status metadata survives the buffer.
	if st.Completed != 6 || st.State != server.StateDone {
		t.Fatalf("eviction corrupted status: %+v", st)
	}
	// The evicted buffer serves no further results.
	if _, ok := j.Next(ctx, 0); ok {
		t.Fatal("Next returned a result from an evicted buffer")
	}
}

// A partially consumed stream never triggers eviction: kill/resume flows
// (the shard coordinator) rely on the tail staying resident.
func TestManagerEvictRequiresFullConsumption(t *testing.T) {
	_, m := newServer(t, server.ManagerOptions{EvictConsumed: true})
	j, err := m.Submit(server.JobRequest{
		Process: "sequential", Spec: "complete:16", Trials: 6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	j.Retain()
	for i := 0; i < 3; i++ {
		if _, ok := j.Next(ctx, i); !ok {
			t.Fatalf("result %d unavailable", i)
		}
	}
	j.MarkConsumed(0, 3)
	j.Wait(ctx)
	j.Release()
	if st := j.Status(); st.Evicted || st.Resident != 6 {
		t.Fatalf("partially consumed job evicted: evicted=%v resident=%d", st.Evicted, st.Resident)
	}
	// A delivery range that leaves a gap below the contiguous mark must
	// not count (a reader that skipped lines 3..4 proves nothing about
	// them).
	j.MarkConsumed(5, 6)
	if st := j.Status(); st.Evicted {
		t.Fatal("gap-leaving consumption evicted the buffer")
	}
	// Fetching results without marking them delivered must not evict
	// either (a mid-write connection cut fetches but never delivers).
	j.Retain()
	for i := 3; i < 6; i++ {
		if _, ok := j.Next(ctx, i); !ok {
			t.Fatalf("result %d unavailable after resume", i)
		}
	}
	j.Release()
	if st := j.Status(); st.Evicted {
		t.Fatal("unmarked Next fetches evicted the buffer")
	}
	// Draining the remainder (a resumed stream) completes consumption.
	j.Retain()
	j.MarkConsumed(3, 6)
	j.Release()
	if st := j.Status(); !st.Evicted {
		t.Fatal("fully consumed job not evicted after resumed drain")
	}
}

// HTTP-level eviction: after a full stream read on an evicting manager,
// re-reading the range answers 410 Gone, reading from the end still
// answers an empty 200 stream with the terminal trailer, and the status
// endpoint reports the eviction.
func TestHTTPEvictConsumed(t *testing.T) {
	ts, _ := newServer(t, server.ManagerOptions{EvictConsumed: true})
	req := server.JobRequest{Process: "parallel", Spec: "torus:6x6", Trials: 5, Seed: 3}
	st := submit(t, ts, req)
	want := direct(t, req)
	if got := stream(t, ts, st.ID, 0); !reflect.DeepEqual(got, want) {
		t.Fatal("streamed NDJSON diverged from direct Engine.Run before eviction")
	}

	// The completed read triggered eviction (poll briefly: the handler's
	// Release runs after the response body is finished).
	deadline := time.Now().Add(5 * time.Second)
	var final server.Status
	for {
		final = getStatus(t, ts, st.ID)
		if final.Evicted || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !final.Evicted || final.Resident != 0 || final.Completed != req.Trials {
		t.Fatalf("status after consumption = %+v, want evicted with completed=%d", final, req.Trials)
	}

	// Evicted range: 410.
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/results?from=0", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("re-read of evicted results: status %d, want 410", resp.StatusCode)
	}

	// Reading from the end is still a valid empty stream with trailer.
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s/results?from=%d", ts.URL, st.ID, req.Trials))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("tail read: status %d body %q, want empty 200", resp.StatusCode, body)
	}
	if tr := resp.Trailer.Get(server.TrailerJobState); tr != string(server.StateDone) {
		t.Fatalf("tail read trailer = %q, want done", tr)
	}
}

// Without EvictConsumed nothing changes: full streams stay re-readable
// and the status never reports eviction (the historical contract).
func TestNoEvictionByDefault(t *testing.T) {
	ts, _ := newServer(t, server.ManagerOptions{})
	req := server.JobRequest{Process: "sequential", Spec: "complete:12", Trials: 4, Seed: 2}
	st := submit(t, ts, req)
	first := stream(t, ts, st.ID, 0)
	second := stream(t, ts, st.ID, 0)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("re-read diverged without eviction")
	}
	if fin := getStatus(t, ts, st.ID); fin.Evicted || fin.Resident != req.Trials {
		t.Fatalf("default manager evicted: %+v", fin)
	}
}
