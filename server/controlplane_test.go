package server_test

// controlplane_test.go covers the scheduler and control plane: FIFO
// dispatch, bounded goroutines under submission floods, weighted fair
// share, admission control (429 + Retry-After, tenant isolation,
// resident-byte budgets), priority and deadline ordering, the /metrics
// endpoint, the bounded ?wait=1 long-poll, the ResultsDir probe, and a
// churn storm for the race detector.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dispersion/server"
)

// plugRequest is a job that occupies a run slot for a long, comfortable
// window (one engine worker, many trials on a sizeable graph) so tests
// can fill queues deterministically behind it, then Cancel it to open
// the floodgates.
func plugRequest() server.JobRequest {
	return server.JobRequest{Process: "parallel", Spec: "complete:256", Trials: 1 << 30, Seed: 1}
}

// quickRequest is a job that finishes in microseconds once dispatched.
func quickRequest(trials int) server.JobRequest {
	return server.JobRequest{Process: "parallel", Spec: "complete:8", Trials: trials, Seed: 1}
}

// waitState polls until the job reaches want or the deadline expires.
func waitState(t *testing.T, j *server.Job, want server.State) server.Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := j.Status()
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %q, want %q", st.ID, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// newManager builds a manager torn down with the test.
func newManager(t *testing.T, opts server.ManagerOptions) *server.Manager {
	t.Helper()
	m, err := server.NewManager(opts)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	t.Cleanup(m.Close)
	return m
}

// Equal-weight submissions under MaxConcurrent=1 must dispatch in
// submission order — the documented FIFO contract the old
// goroutine-parked-on-channel dispatch only delivered by accident of
// runtime wakeup order.
func TestFIFODispatchOrderSingleTenant(t *testing.T) {
	m := newManager(t, server.ManagerOptions{MaxConcurrent: 1, EngineWorkers: 1})
	plug, err := m.Submit(plugRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, plug, server.StateRunning)

	const n = 8
	jobs := make([]*server.Job, n)
	for i := range jobs {
		j, err := m.Submit(quickRequest(1))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	plug.Cancel()
	for i, j := range jobs {
		if st := j.Wait(t.Context()); st.State != server.StateDone {
			t.Fatalf("job %d: state %q (%s), want done", i, st.State, st.Error)
		}
	}
	for i := 1; i < n; i++ {
		prev, cur := jobs[i-1].Status(), jobs[i].Status()
		if !prev.StartedAt.Before(cur.StartedAt) {
			t.Errorf("dispatch out of submission order: job %d started %v, job %d started %v",
				i-1, prev.StartedAt, i, cur.StartedAt)
		}
	}
}

// A submission flood must not grow goroutines with queue depth: queued
// jobs hold no goroutine, workers start only at dispatch.
func TestSubmissionFloodBoundedGoroutines(t *testing.T) {
	m := newManager(t, server.ManagerOptions{MaxConcurrent: 1, EngineWorkers: 1})
	plug, err := m.Submit(plugRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, plug, server.StateRunning)
	base := runtime.NumGoroutine()

	const flood = 300
	jobs := make([]*server.Job, flood)
	for i := range jobs {
		j, err := m.Submit(quickRequest(1))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	if got := runtime.NumGoroutine(); got > base+50 {
		t.Fatalf("goroutines grew from %d to %d across a %d-job flood; queued jobs must not hold goroutines", base, got, flood)
	}
	plug.Cancel()
	for i, j := range jobs {
		if st := j.Wait(t.Context()); st.State != server.StateDone {
			t.Fatalf("job %d: state %q (%s), want done", i, st.State, st.Error)
		}
	}
}

// Under saturation, two tenants' dispatch (and with equal job sizes,
// completed-trial) shares must track their configured 3:1 weights within
// 10%.
func TestFairShareWeightedDispatch(t *testing.T) {
	const perTenant = 40
	m := newManager(t, server.ManagerOptions{
		MaxConcurrent: 1,
		EngineWorkers: 1,
		TenantQuotas: map[string]server.TenantQuota{
			"a": {Weight: 3},
			"b": {Weight: 1},
		},
	})
	plug, err := m.SubmitAs("plug", plugRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, plug, server.StateRunning)

	var jobs []*server.Job
	for i := 0; i < perTenant; i++ {
		for _, tenant := range []string{"a", "b"} {
			j, err := m.SubmitAs(tenant, quickRequest(3))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	plug.Cancel()
	stats := make([]server.Status, 0, len(jobs))
	for _, j := range jobs {
		st := j.Wait(t.Context())
		if st.State != server.StateDone {
			t.Fatalf("job %s: state %q (%s), want done", st.ID, st.State, st.Error)
		}
		stats = append(stats, j.Status())
	}
	sort.Slice(stats, func(i, k int) bool { return stats[i].StartedAt.Before(stats[k].StartedAt) })

	// While both queues are non-empty the stride scheduler dispatches
	// a:b = 3:1. Tenant a's queue drains after 40/0.75 ≈ 53 dispatches,
	// so judge the contended prefix only.
	const window = 32
	countA := 0
	for _, st := range stats[:window] {
		if st.Tenant == "a" {
			countA++
		}
	}
	wantA := window * 3 / 4
	if diff := countA - wantA; diff < -3 || diff > 3 {
		t.Errorf("tenant a won %d of the first %d dispatches, want %d ±3 (weight 3 of 4)", countA, window, wantA)
	}
	// Trials follow dispatches: equal job sizes, so the trial share must
	// match the dispatch share.
	trialsA := countA * 3
	total := window * 3
	if share := float64(trialsA) / float64(total); share < 0.75*0.9 || share > 0.75*1.1 {
		t.Errorf("tenant a completed-trial share %.3f in the contended window, want 0.75 ±10%%", share)
	}
}

// submitHTTP posts a request under an API key and returns the response
// status code, Retry-After header, and decoded job status (for 201s).
func submitHTTP(t *testing.T, ts *httptest.Server, apiKey string, req server.JobRequest) (int, string, server.Status) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		hreq.Header.Set(server.APIKeyHeader, apiKey)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Status
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), st
}

// Queue exhaustion must shed load with 429 + Retry-After, and one
// tenant's flood must never consume another tenant's admission budget.
func TestAdmissionControlHTTP(t *testing.T) {
	ts, m := newServer(t, server.ManagerOptions{
		MaxConcurrent: 1,
		EngineWorkers: 1,
		MaxQueued:     64,
		TenantQuotas: map[string]server.TenantQuota{
			"keyA": {MaxQueued: 2},
		},
	})
	code, _, plugSt := submitHTTP(t, ts, "", plugRequest())
	if code != http.StatusCreated {
		t.Fatalf("plug submit: status %d", code)
	}
	plug, _ := m.Get(plugSt.ID)
	waitState(t, plug, server.StateRunning)

	// Tenant keyA may queue 2 jobs; the 3rd is shed with a backoff hint.
	for i := 0; i < 2; i++ {
		if code, _, _ := submitHTTP(t, ts, "keyA", quickRequest(1)); code != http.StatusCreated {
			t.Fatalf("keyA submit %d: status %d, want 201", i, code)
		}
	}
	code, retryAfter, _ := submitHTTP(t, ts, "keyA", quickRequest(1))
	if code != http.StatusTooManyRequests {
		t.Fatalf("keyA over-quota submit: status %d, want 429", code)
	}
	if secs, err := strconv.Atoi(retryAfter); err != nil || secs < 1 {
		t.Errorf("429 Retry-After = %q, want an integer >= 1", retryAfter)
	}
	// keyA's exhausted quota must not affect keyB.
	if code, _, _ := submitHTTP(t, ts, "keyB", quickRequest(1)); code != http.StatusCreated {
		t.Fatalf("keyB submit during keyA flood: status %d, want 201", code)
	}
	plug.Cancel()
}

// The global queue bound sheds anonymous submissions too.
func TestGlobalQueueBound(t *testing.T) {
	ts, m := newServer(t, server.ManagerOptions{
		MaxConcurrent: 1,
		EngineWorkers: 1,
		MaxQueued:     3,
	})
	code, _, plugSt := submitHTTP(t, ts, "", plugRequest())
	if code != http.StatusCreated {
		t.Fatalf("plug submit: status %d", code)
	}
	plug, _ := m.Get(plugSt.ID)
	waitState(t, plug, server.StateRunning)
	for i := 0; i < 3; i++ {
		if code, _, _ := submitHTTP(t, ts, "", quickRequest(1)); code != http.StatusCreated {
			t.Fatalf("submit %d: status %d, want 201", i, code)
		}
	}
	code, retryAfter, _ := submitHTTP(t, ts, "", quickRequest(1))
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit: status %d, want 429", code)
	}
	if retryAfter == "" {
		t.Error("429 response missing Retry-After header")
	}
	plug.Cancel()
}

// Within one tenant, higher priority dispatches first; a queued job
// whose deadline passes fails without ever running.
func TestPriorityAndDeadline(t *testing.T) {
	m := newManager(t, server.ManagerOptions{MaxConcurrent: 1, EngineWorkers: 1})
	plug, err := m.Submit(plugRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, plug, server.StateRunning)

	lowFirst, err := m.Submit(quickRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	lowSecond, err := m.Submit(quickRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	highReq := quickRequest(1)
	highReq.Priority = 10
	high, err := m.Submit(highReq)
	if err != nil {
		t.Fatal(err)
	}

	doomedReq := quickRequest(1)
	doomedReq.DeadlineMS = 50
	doomed, err := m.Submit(doomedReq)
	if err != nil {
		t.Fatal(err)
	}
	if st := doomed.Wait(t.Context()); st.State != server.StateFailed {
		t.Fatalf("deadlined job: state %q, want failed", st.State)
	} else {
		if !strings.Contains(st.Error, "deadline") {
			t.Errorf("deadlined job error = %q, want a deadline message", st.Error)
		}
		if !st.StartedAt.IsZero() {
			t.Errorf("deadlined job has StartedAt %v, want never started", st.StartedAt)
		}
	}

	plug.Cancel()
	for _, j := range []*server.Job{lowFirst, lowSecond, high} {
		if st := j.Wait(t.Context()); st.State != server.StateDone {
			t.Fatalf("job %s: state %q (%s), want done", st.ID, st.State, st.Error)
		}
	}
	hi, l1, l2 := high.Status(), lowFirst.Status(), lowSecond.Status()
	if !hi.StartedAt.Before(l1.StartedAt) {
		t.Errorf("priority 10 started %v, after priority 0 at %v", hi.StartedAt, l1.StartedAt)
	}
	if !l1.StartedAt.Before(l2.StartedAt) {
		t.Errorf("equal-priority jobs out of FIFO order: %v then %v", l1.StartedAt, l2.StartedAt)
	}
}

// Resident-byte budgets gate admission per tenant and globally, and
// eviction refunds the budget.
func TestResidentBytesBudget(t *testing.T) {
	m := newManager(t, server.ManagerOptions{
		MaxConcurrent: 1,
		EvictConsumed: true,
		TenantQuotas: map[string]server.TenantQuota{
			"a": {MaxResidentBytes: 1},
		},
	})
	j, err := m.SubmitAs("a", quickRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Wait(t.Context()); st.State != server.StateDone {
		t.Fatalf("job: state %q (%s), want done", st.State, st.Error)
	}
	if st := j.Status(); st.ResidentBytes <= 0 {
		t.Fatalf("done job reports ResidentBytes %d, want > 0", st.ResidentBytes)
	}

	var qe *server.QuotaError
	if _, err := m.SubmitAs("a", quickRequest(1)); !errors.As(err, &qe) {
		t.Fatalf("over-byte-budget submit: err %v, want *QuotaError", err)
	} else if qe.Reason != server.ReasonResidentBytes || qe.Scope != "tenant" {
		t.Errorf("QuotaError = %+v, want tenant/resident-bytes", qe)
	}
	if _, err := m.SubmitAs("b", quickRequest(1)); err != nil {
		t.Fatalf("tenant b blocked by tenant a's byte budget: %v", err)
	}

	// Consuming the stream evicts the buffer and refunds the budget.
	j.MarkConsumed(0, 2)
	if st := j.Status(); !st.Evicted || st.ResidentBytes != 0 {
		t.Fatalf("after full consumption: evicted=%t resident_bytes=%d, want evicted with 0 bytes", st.Evicted, st.ResidentBytes)
	}
	if _, err := m.SubmitAs("a", quickRequest(1)); err != nil {
		t.Fatalf("submit after eviction refunded the budget: %v", err)
	}
}

// The global resident-byte budget sheds all tenants once exhausted.
func TestGlobalResidentBytesBudget(t *testing.T) {
	m := newManager(t, server.ManagerOptions{MaxConcurrent: 1, MaxResidentBytes: 1})
	j, err := m.Submit(quickRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Wait(t.Context()); st.State != server.StateDone {
		t.Fatalf("job: state %q, want done", st.State)
	}
	var qe *server.QuotaError
	if _, err := m.SubmitAs("other", quickRequest(1)); !errors.As(err, &qe) {
		t.Fatalf("submit over global byte budget: err %v, want *QuotaError", err)
	} else if qe.Scope != "global" || qe.Reason != server.ReasonResidentBytes {
		t.Errorf("QuotaError = %+v, want global/resident-bytes", qe)
	}
}

// parseMetrics reads Prometheus text format into sample-name -> value.
func parseMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad metrics line %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad metrics value in %q: %v", line, err)
		}
		out[name] = f
	}
	return out
}

// /metrics must report queue depth, per-state job counts, rejections and
// trials consistent with the test's own accounting.
func TestMetricsEndpoint(t *testing.T) {
	ts, m := newServer(t, server.ManagerOptions{
		MaxConcurrent: 1,
		EngineWorkers: 1,
		TenantQuotas: map[string]server.TenantQuota{
			"keyA": {MaxQueued: 1},
		},
	})
	// Anonymous: 2 jobs done, 3 trials total. keyA: 1 done (1 trial),
	// then 1 queued and 1 rejected behind the plug. The plug runs under
	// its own tenant so its ever-growing trial count stays out of the
	// asserted counters.
	for _, trials := range []int{1, 2} {
		st := submit(t, ts, quickRequest(trials))
		j, _ := m.Get(st.ID)
		if got := j.Wait(t.Context()); got.State != server.StateDone {
			t.Fatalf("job: state %q, want done", got.State)
		}
	}
	code, _, doneSt := submitHTTP(t, ts, "keyA", quickRequest(1))
	if code != http.StatusCreated {
		t.Fatalf("keyA submit: status %d", code)
	}
	if doneJob, ok := m.Get(doneSt.ID); !ok {
		t.Fatalf("submitted job %s not found", doneSt.ID)
	} else if got := doneJob.Wait(t.Context()); got.State != server.StateDone {
		t.Fatalf("keyA job: state %q, want done", got.State)
	}

	plug, err := m.SubmitAs("plugTenant", plugRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, plug, server.StateRunning)
	queued, err := m.SubmitAs("keyA", quickRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if code, _, _ := submitHTTP(t, ts, "keyA", quickRequest(1)); code != http.StatusTooManyRequests {
		t.Fatalf("keyA over-quota submit: status %d, want 429", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	if !strings.Contains(string(body), "# TYPE dispersion_jobs_total counter") {
		t.Error("metrics output missing # TYPE metadata for dispersion_jobs_total")
	}
	got := parseMetrics(t, string(body))
	want := map[string]float64{
		"dispersion_queue_depth":                                                        1,
		"dispersion_jobs_running":                                                       1,
		`dispersion_jobs_total{tenant="anonymous",state="done"}`:                        2,
		`dispersion_jobs_total{tenant="keyA",state="done"}`:                             1,
		`dispersion_trials_completed_total{tenant="anonymous"}`:                         3,
		`dispersion_trials_completed_total{tenant="keyA"}`:                              1,
		`dispersion_jobs_submitted_total{tenant="keyA"}`:                                2,
		`dispersion_tenant_jobs_queued{tenant="keyA"}`:                                  1,
		`dispersion_admission_rejected_total{tenant="keyA",reason="tenant-queue-full"}`: 1,
		// The three complete:8 jobs that ran share one build: the first
		// misses, the two identical ones after it hit. The plug's
		// complete:256 misses. Both graphs are implicit, with no arrays:
		// each is charged its key, its name and the entry overhead.
		"dispersion_graph_cache_misses_total":    2,
		"dispersion_graph_cache_hits_total":      2,
		"dispersion_graph_cache_evictions_total": 0,
		"dispersion_graph_cache_entries":         2,
		"dispersion_graph_cache_bytes":           graphCharge(t, "complete:8") + graphCharge(t, "complete:256"),
	}
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("%s = %v (reported %t), want %v", name, g, ok, v)
		}
	}
	if got["dispersion_resident_bytes_total"] <= 0 {
		t.Errorf("dispersion_resident_bytes_total = %v, want > 0 with buffered results",
			got["dispersion_resident_bytes_total"])
	}
	plug.Cancel()
	queued.Wait(t.Context())
}

// The ?wait=1 summary long-poll must not pin a handler on a
// never-finishing job: at SummaryMaxWait it answers the current
// snapshot with a Retry-After hint.
func TestSummaryWaitBounded(t *testing.T) {
	m := newManager(t, server.ManagerOptions{MaxConcurrent: 1, EngineWorkers: 1})
	srv := server.New(m)
	srv.SummaryMaxWait = 50 * time.Millisecond
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	plug, err := m.Submit(plugRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, plug, server.StateRunning)

	start := time.Now()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/summary?wait=1", ts.URL, plug.ID()))
	if err != nil {
		t.Fatal(err)
	}
	waited := time.Since(start)
	var sr server.SummaryResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode summary: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bounded wait: status %d, want 200", resp.StatusCode)
	}
	if waited > 5*time.Second {
		t.Fatalf("bounded wait blocked %v despite a 50ms SummaryMaxWait", waited)
	}
	if sr.State.Terminal() {
		t.Fatalf("long-poll on a running plug returned terminal state %q", sr.State)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("non-terminal bounded ?wait=1 response missing Retry-After hint")
	}

	// A terminal job's ?wait=1 still answers immediately with no hint.
	plug.Cancel()
	plug.Wait(t.Context())
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s/summary?wait=1", ts.URL, plug.ID()))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode summary: %v", err)
	}
	resp.Body.Close()
	if !sr.State.Terminal() {
		t.Errorf("post-cancel ?wait=1 state = %q, want terminal", sr.State)
	}
	if h := resp.Header.Get("Retry-After"); h != "" {
		t.Errorf("terminal ?wait=1 response has Retry-After %q, want none", h)
	}
}

// A misconfigured ResultsDir must fail at construction, not at the first
// job's expense.
func TestResultsDirProbe(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "does", "not", "exist")
	if _, err := server.NewManager(server.ManagerOptions{ResultsDir: bad}); err == nil {
		t.Fatalf("NewManager(ResultsDir=%q) = nil error, want a writability failure", bad)
	}
	m, err := server.NewManager(server.ManagerOptions{ResultsDir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewManager with a writable dir: %v", err)
	}
	m.Close()
}

// A submit/cancel/deadline/evict storm across tenants must leave every
// job terminal and the goroutine count settled. CI runs this under
// -race -count=2.
func TestSchedulerChurnStorm(t *testing.T) {
	m := newManager(t, server.ManagerOptions{
		MaxConcurrent: 4,
		EngineWorkers: 1,
		EvictConsumed: true,
		TenantQuotas: map[string]server.TenantQuota{
			"t0": {Weight: 3},
			"t1": {Weight: 2, MaxRunning: 2},
		},
	})
	base := runtime.NumGoroutine()
	const workers = 8
	const perWorker = 30
	var wg sync.WaitGroup
	var mu sync.Mutex
	var jobs []*server.Job
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := quickRequest(1 + i%3)
				req.Priority = (w + i) % 5
				if i%7 == 3 {
					req.DeadlineMS = 1
				}
				j, err := m.SubmitAs(fmt.Sprintf("t%d", w%3), req)
				if err != nil {
					var qe *server.QuotaError
					if errors.As(err, &qe) {
						continue // shed under load: acceptable
					}
					t.Errorf("worker %d submit %d: %v", w, i, err)
					return
				}
				if i%5 == 2 {
					j.Cancel()
				}
				if i%4 == 1 {
					j.MarkConsumed(0, 1+i%3)
				}
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, j := range jobs {
		if st := j.Wait(t.Context()); !st.State.Terminal() {
			t.Fatalf("job %s: non-terminal state %q after storm", st.ID, st.State)
		}
	}
	// Workers unwind after their jobs report terminal; give them a
	// moment before judging the goroutine count.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= base+20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines settled at %d, started at %d: storm leaked workers", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
