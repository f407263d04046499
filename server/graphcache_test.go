package server_test

// graphcache_test.go covers the manager's graph cache and the bounds on
// what a submission may ask the server to build or read: single-flight
// sharing under concurrent jobs, seed-keyed random families, canonical
// keys, probation for graphs asked for once, LRU eviction at a byte
// budget, the bounded entry count, the MaxGraphBytes admission bound,
// and the POST /v1/jobs body bound.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dispersion"
	"dispersion/agg"
	"dispersion/graphspec"
	"dispersion/server"
)

// engineSummary is the summary JSON of req run straight through
// Engine.Run, which builds its own graph from the spec.
func engineSummary(t *testing.T, req server.JobRequest) []byte {
	t.Helper()
	s := agg.NewSummary()
	eng := dispersion.Engine{Seed: req.Seed, Experiment: req.Experiment}
	err := eng.Run(context.Background(), dispersion.Job{
		Process: req.Process, Spec: req.Spec, Origin: req.Origin,
		Trials: req.Trials, FirstTrial: req.FirstTrial, Options: req.Options.Build(),
	}, func(tr dispersion.Trial) error {
		s.Add(tr.Result)
		return nil
	})
	if err != nil {
		t.Fatalf("Engine.Run(%s): %v", req.Spec, err)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runSummary submits req, waits for it to finish and returns its
// summary JSON.
func runSummary(t *testing.T, m *server.Manager, req server.JobRequest) []byte {
	t.Helper()
	j, err := m.Submit(req)
	if err != nil {
		t.Fatalf("Submit(%s): %v", req.Spec, err)
	}
	if st := j.Wait(context.Background()); st.State != server.StateDone {
		t.Fatalf("job on %s: state %s %q, want done", req.Spec, st.State, st.Error)
	}
	b, _, err := j.SummaryJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cacheMetrics scrapes the manager's graph-cache series.
func cacheMetrics(t *testing.T, m *server.Manager) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	all := parseMetrics(t, buf.String())
	out := map[string]float64{}
	for name, v := range all {
		if rest, ok := strings.CutPrefix(name, "dispersion_graph_cache_"); ok {
			out[rest] = v
		}
	}
	return out
}

// graphCharge is what the cache charges for keeping spec's graph: its
// footprint, the lengths of its key (the Canonical spec) and name, and
// the fixed entry overhead.
func graphCharge(t *testing.T, spec string) float64 {
	t.Helper()
	s, err := graphspec.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	return float64(graphspec.Footprint(g) + int64(len(canon.String())+len(g.Name())) + server.GraphEntryOverhead)
}

// checkCache compares the cache's hit, miss and entry counts.
func checkCache(t *testing.T, m *server.Manager, hits, misses, entries float64) {
	t.Helper()
	got := cacheMetrics(t, m)
	if got["hits_total"] != hits || got["misses_total"] != misses || got["entries"] != entries {
		t.Errorf("graph cache hits/misses/entries = %v/%v/%v, want %v/%v/%v",
			got["hits_total"], got["misses_total"], got["entries"], hits, misses, entries)
	}
}

// Concurrent jobs on one spec build its graph once and share it: one
// miss, every other job a hit, and each job's summary byte-identical to
// Engine.Run building its own graph.
func TestGraphCacheSingleFlight(t *testing.T) {
	const n = 8
	m := newManager(t, server.ManagerOptions{MaxConcurrent: n, EngineWorkers: 1})
	reqs := make([]server.JobRequest, n)
	jobs := make([]*server.Job, n)
	for i := range reqs {
		reqs[i] = server.JobRequest{
			Process: "sequential", Spec: "wcomplete:256,1", Trials: 6,
			Seed: uint64(i + 1), SummaryOnly: true, Options: server.Options{Particles: 64},
		}
		j, err := m.Submit(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	var wg sync.WaitGroup
	got := make([][]byte, n)
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j.Wait(context.Background())
			got[i], _, _ = j.SummaryJSON()
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if st := j.Status(); st.State != server.StateDone {
			t.Fatalf("job %d: state %s %q, want done", i, st.State, st.Error)
		}
		if want := engineSummary(t, reqs[i]); !bytes.Equal(got[i], want) {
			t.Errorf("job %d summary differs from Engine.Run:\n%s\n%s", i, got[i], want)
		}
	}
	checkCache(t, m, n-1, 1, 1)
	// The jobs that shared the build proved the graph: a run of one-off
	// graphs through probation does not displace it.
	for i := range server.GraphProbation + 1 {
		runSummary(t, m, server.JobRequest{Process: "sequential", Spec: fmt.Sprintf("star:%d", 20+i), Trials: 1})
	}
	runSummary(t, m, reqs[0])
	checkCache(t, m, n, 2+server.GraphProbation, 1+server.GraphProbation)
}

// A random family's graph depends on the seed, so each seed gets its own
// entry, and each job matches Engine.Run at its own seed; a
// deterministic family shares one entry across seeds.
func TestGraphCacheKeysRandomFamiliesBySeed(t *testing.T) {
	m := newManager(t, server.ManagerOptions{MaxConcurrent: 1})
	for _, seed := range []uint64{3, 4, 3} {
		req := server.JobRequest{Process: "parallel", Spec: "gnp:64,0.1", Trials: 5, Seed: seed}
		if got, want := runSummary(t, m, req), engineSummary(t, req); !bytes.Equal(got, want) {
			t.Errorf("gnp:64,0.1 seed %d summary differs from Engine.Run:\n%s\n%s", seed, got, want)
		}
	}
	checkCache(t, m, 1, 2, 2)
	for _, seed := range []uint64{3, 4} {
		req := server.JobRequest{Process: "parallel", Spec: "wcomplete:64,1", Trials: 5, Seed: seed}
		if got, want := runSummary(t, m, req), engineSummary(t, req); !bytes.Equal(got, want) {
			t.Errorf("wcomplete:64,1 seed %d summary differs from Engine.Run:\n%s\n%s", seed, got, want)
		}
	}
	checkCache(t, m, 2, 3, 3)
}

// Graphs that no job asks for again wait in probation: a run of one-off
// specs, like a sweep over sizes, keeps only the last GraphProbation of
// them, however large the budget, and never displaces a graph a second
// job has asked for.
func TestGraphCacheProbation(t *testing.T) {
	m := newManager(t, server.ManagerOptions{MaxConcurrent: 1})
	run := func(spec string) {
		runSummary(t, m, server.JobRequest{Process: "sequential", Spec: spec, Trials: 1, Seed: 1})
	}
	run("star:20")
	run("star:20") // a hit: star:20 is proven
	const oneOff = 3 * server.GraphProbation
	for i := range oneOff {
		run(fmt.Sprintf("star:%d", 100+i))
	}
	got := cacheMetrics(t, m)
	if got["entries"] != 1+server.GraphProbation || got["evictions_total"] != oneOff-server.GraphProbation {
		t.Errorf("%v entries, %v evictions after %d one-off specs; want %d entries, %d evictions",
			got["entries"], got["evictions_total"], oneOff, 1+server.GraphProbation, oneOff-server.GraphProbation)
	}
	run("star:20")                            // still kept
	run(fmt.Sprintf("star:%d", 100+oneOff-1)) // the newest one-off, still in probation
	checkCache(t, m, 3, 1+oneOff, 1+server.GraphProbation)
	// That hit proved the newest one-off, so probation has room for the
	// oldest one-off, which was evicted and is built again.
	run("star:100")
	checkCache(t, m, 3, 2+oneOff, 2+server.GraphProbation)

	// Probation also holds at most 1/GraphProbation of the budget,
	// besides its newest graph: at a 64 KiB budget, a 12 KB star graph
	// displaces the one before it.
	m = newManager(t, server.ManagerOptions{MaxConcurrent: 1, MaxGraphBytes: 64 << 10})
	for i := range 3 {
		run(fmt.Sprintf("star:%d", 1000+i))
	}
	if got := cacheMetrics(t, m); got["entries"] != 1 || got["evictions_total"] != 2 {
		t.Errorf("%v entries, %v evictions after three 12 KB one-off graphs at a 64 KiB budget; want 1, 2",
			got["entries"], got["evictions_total"])
	}

	// Beyond the byte budget, probation is evicted before proven graphs:
	// at 32 KiB, a proven 31 KB star:2500 stays while two small one-off
	// graphs overflow the budget.
	m = newManager(t, server.ManagerOptions{MaxConcurrent: 1, MaxGraphBytes: 32 << 10})
	for _, spec := range []string{"star:2500", "star:2500", "star:20", "star:30", "star:2500"} {
		run(spec)
	}
	checkCache(t, m, 2, 3, 2)
}

// Spellings of one spec share one entry: the key is the spec's
// Canonical text, not the submitted one.
func TestGraphCacheKeysCanonicalSpecs(t *testing.T) {
	m := newManager(t, server.ManagerOptions{MaxConcurrent: 1})
	for _, spec := range []string{"wcomplete:8,1", "wcomplete:08,1.0", "wcomplete:+8,1e0", "wcomplete: 8 , 1"} {
		req := server.JobRequest{Process: "sequential", Spec: spec, Trials: 3, Seed: 2}
		if got, want := runSummary(t, m, req), engineSummary(t, req); !bytes.Equal(got, want) {
			t.Errorf("%s summary differs from Engine.Run:\n%s\n%s", spec, got, want)
		}
	}
	checkCache(t, m, 3, 1, 1)
}

// Beyond its byte budget the cache evicts the least recently used graph,
// not the oldest one: a hit refreshes an entry. Each entry is charged
// its footprint, key and name lengths and the fixed overhead.
func TestGraphCacheEvictsLeastRecentlyUsed(t *testing.T) {
	// Star CSR footprints are 236, 356 and 476 bytes, so each entry is
	// charged 1.3 to 1.6 KiB: any two fit 3500 bytes, all three do not.
	m := newManager(t, server.ManagerOptions{MaxConcurrent: 1, MaxGraphBytes: 3500})
	run := func(spec string, jobs int) {
		for range jobs { // a second job proves the graph
			runSummary(t, m, server.JobRequest{Process: "sequential", Spec: spec, Trials: 1, Seed: 1})
		}
	}
	run("star:20", 2)
	run("star:30", 2)
	run("star:20", 1) // a hit: star:30 is now the least recently used
	run("star:40", 2) // evicts star:30
	got := cacheMetrics(t, m)
	if want := graphCharge(t, "star:20") + graphCharge(t, "star:40"); got["evictions_total"] != 1 || got["bytes"] != want {
		t.Errorf("evictions %v, bytes %v; want 1 eviction leaving %v bytes", got["evictions_total"], got["bytes"], want)
	}
	run("star:20", 1) // still cached
	checkCache(t, m, 5, 3, 2)
	run("star:30", 1) // rebuilt, evicting star:40
	checkCache(t, m, 5, 4, 2)
}

// Graphs with no arrays still cost their entry: however many distinct
// closed-form specs a server keeps, and proven ones are not capped by
// count, the cache holds no more than its budget over GraphEntryOverhead
// of them.
func TestGraphCacheBoundsEntriesOfFreeGraphs(t *testing.T) {
	const budget = 8 * server.GraphEntryOverhead
	m := newManager(t, server.ManagerOptions{MaxConcurrent: 1, MaxGraphBytes: budget})
	const specs = 40
	for i := range specs {
		spec := fmt.Sprintf("%s:%d", []string{"complete", "cycle", "path"}[i%3], 100+i)
		for range 2 { // the second job proves the graph
			runSummary(t, m, server.JobRequest{Process: "sequential", Spec: spec, Trials: 1, Seed: 1})
		}
	}
	got := cacheMetrics(t, m)
	if got["entries"] > budget/server.GraphEntryOverhead || got["bytes"] > budget {
		t.Errorf("%v entries of %v bytes kept, want at most %d entries within %d bytes",
			got["entries"], got["bytes"], budget/server.GraphEntryOverhead, budget)
	}
	if got["misses_total"] != specs || got["hits_total"] != specs || got["evictions_total"] != specs-got["entries"] {
		t.Errorf("misses %v, hits %v, evictions %v, entries %v: want %d misses and hits, every graph not kept evicted",
			got["misses_total"], got["hits_total"], got["evictions_total"], got["entries"], specs)
	}
}

// A job waiting on another job's build stops waiting when it is
// cancelled, and a failed build is not cached: the next job on its key
// builds again.
func TestGraphCacheWaiterCancelAndBuildErrors(t *testing.T) {
	m := newManager(t, server.ManagerOptions{MaxConcurrent: 2, EngineWorkers: 1})
	// A dense random-regular spec: its rejection sampler spends about a
	// quarter second on 1000 attempts, then fails.
	slow := server.JobRequest{Process: "sequential", Spec: "regular:200,100", Trials: 1, Seed: 1}
	builder, err := m.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	// The first job to reach the cache builds; hold the second back until
	// the builder's miss is on record.
	for deadline := time.Now().Add(10 * time.Second); cacheMetrics(t, m)["misses_total"] == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the first job never started its build")
		}
		time.Sleep(time.Millisecond)
	}
	waiter, err := m.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, waiter, server.StateRunning)
	waiter.Cancel()
	if st := waiter.Wait(context.Background()); st.State != server.StateCancelled {
		t.Errorf("cancelled waiter: state %s %q, want cancelled", st.State, st.Error)
	}
	if st := builder.Wait(context.Background()); st.State != server.StateFailed {
		t.Errorf("builder: state %s, want failed", st.State)
	}
	checkCache(t, m, 1, 1, 0)
	// A deterministic spec whose arguments parse but whose build fails
	// is not kept either. (A spec whose arguments do not parse, like
	// cycle:2, fails before the cache is consulted.)
	for _, spec := range []string{"wcycle:5,-2", "wcycle:5,-2", "cycle:2"} {
		j, err := m.Submit(server.JobRequest{Process: "sequential", Spec: spec, Trials: 1})
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Wait(context.Background()); st.State != server.StateFailed {
			t.Errorf("%s: state %s %q, want failed", spec, st.State, st.Error)
		}
	}
	checkCache(t, m, 1, 3, 0)
}

// postJob posts a raw body to POST /v1/jobs and returns the status code
// and response body.
func postJob(t *testing.T, ts *httptest.Server, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

// Specs that are cheap to write but whose graphs would take gigabytes
// are refused with 400 at submission, from the cost model alone. The
// server allocates less than heapBound for all of them together; the
// bound is on TotalAlloc, every byte allocated whether freed or not, so
// it also bounds HeapAlloc's growth.
func TestGraphBudgetRefusesCostlySpecs(t *testing.T) {
	const heapBound = 16 << 20
	ts, _ := newServer(t, server.ManagerOptions{})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, spec := range []string{
		"grid:40000x40000", "bintree:30", "hair:100000", "regular:40000000,50", "wcomplete:100000,1",
	} {
		body, _ := json.Marshal(server.JobRequest{Process: "sequential", Spec: spec, Trials: 1})
		code, msg := postJob(t, ts, body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", spec, code)
		}
		allowed := fmt.Sprintf("over the %d allowed", server.DefaultMaxGraphBytes)
		if !strings.Contains(msg, "models ") || !strings.Contains(msg, allowed) {
			t.Errorf("%s: message %q names neither the modeled nor the allowed bytes", spec, msg)
		}
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > heapBound {
		t.Errorf("refusing the costly specs allocated %d bytes, bound %d", d, heapBound)
	}
}

// A job body of exactly MaxJobRequestBytes is read; one byte more
// answers 413.
func TestSubmitBodyBound(t *testing.T) {
	ts, _ := newServer(t, server.ManagerOptions{})
	head := []byte(`{"process":"parallel","spec":"complete:8","trials":1,`)
	tail := []byte(`"seed":1}`)
	body := func(size int) []byte {
		b := make([]byte, 0, size)
		b = append(b, head...)
		b = append(b, bytes.Repeat([]byte{' '}, size-len(head)-len(tail))...)
		return append(b, tail...)
	}
	if code, msg := postJob(t, ts, body(server.MaxJobRequestBytes)); code != http.StatusCreated {
		t.Errorf("body of %d bytes: status %d %s, want 201", server.MaxJobRequestBytes, code, msg)
	}
	if code, msg := postJob(t, ts, body(server.MaxJobRequestBytes+1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("body of %d bytes: status %d %s, want 413", server.MaxJobRequestBytes+1, code, msg)
	}
}
