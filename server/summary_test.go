package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"dispersion/agg"
	"dispersion/internal/stats"
	"dispersion/server"
	"dispersion/sink"
)

// getSummary fetches a job's summary, optionally blocking for the
// terminal state, from the given path form ("/summary" or
// "?view=summary" on another route).
func getSummary(t *testing.T, ts *httptest.Server, url string) server.SummaryResponse {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, msg)
	}
	var sr server.SummaryResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode summary response: %v", err)
	}
	return sr
}

// A finished job's summary must agree with an offline statistics pass
// over the very trials the job streamed.
func TestSummaryMatchesOfflineStats(t *testing.T) {
	ts, _ := newServer(t, server.ManagerOptions{})
	req := server.JobRequest{Process: "sequential", Spec: "complete:12", Trials: 120, Seed: 9, Experiment: 2}
	st := submit(t, ts, req)

	sr := getSummary(t, ts, fmt.Sprintf("%s/v1/jobs/%s/summary?wait=1", ts.URL, st.ID))
	if sr.State != server.StateDone || sr.Completed != req.Trials {
		t.Fatalf("summary response state/completed = %s/%d", sr.State, sr.Completed)
	}
	var sum agg.Summary
	if err := json.Unmarshal(sr.Summary, &sum); err != nil {
		t.Fatalf("decode summary: %v", err)
	}
	if sum.Trials != int64(req.Trials) || sum.Process != "sequential" {
		t.Fatalf("summary identity %q/%d", sum.Process, sum.Trials)
	}

	// Recompute offline from the results stream the same server serves.
	var makespans []float64
	for _, line := range stream(t, ts, st.ID, 0) {
		var rec sink.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		makespans = append(makespans, rec.Result.Makespan())
	}
	sort.Float64s(makespans)
	off := stats.Summarize(makespans)
	if math.Abs(sum.Makespan.Moments.Mean()-off.Mean) > 1e-9*off.Mean {
		t.Errorf("mean %v, offline %v", sum.Makespan.Moments.Mean(), off.Mean)
	}
	for _, q := range []float64{0.5, 0.99} {
		got := sum.Makespan.Quantiles.Query(q)
		want := stats.Quantile(makespans, q)
		if math.Abs(got-want) > 2*agg.DefaultAlpha*want {
			t.Errorf("q%v = %v, offline %v", q, got, want)
		}
	}
	// CDF exactness at a bucket edge: pick an edge inside the range.
	h := sum.Makespan.Histogram
	edge := 2 * h.Width()
	var below int
	for _, m := range makespans {
		if m < edge {
			below++
		}
	}
	if got, want := h.CDF(edge), float64(below)/float64(len(makespans)); got != want {
		t.Errorf("CDF(%v) = %v, offline %v", edge, got, want)
	}

	// ?view=summary on both the status and results routes answers the
	// same document.
	viaStatus := getSummary(t, ts, fmt.Sprintf("%s/v1/jobs/%s?view=summary", ts.URL, st.ID))
	viaResults := getSummary(t, ts, fmt.Sprintf("%s/v1/jobs/%s/results?view=summary", ts.URL, st.ID))
	if !bytes.Equal(viaStatus.Summary, sr.Summary) || !bytes.Equal(viaResults.Summary, sr.Summary) {
		t.Error("?view=summary diverged from the summary endpoint")
	}
}

// The summary endpoint answers one line of compact JSON, and its summary
// is byte for byte json.Marshal of the same trials' agg.Summary: the
// canonical layout agg's reader parses without encoding/json.
func TestSummaryResponseIsCanonical(t *testing.T) {
	ts, _ := newServer(t, server.ManagerOptions{})
	req := server.JobRequest{Process: "sequential", Spec: "complete:16", Trials: 30, Seed: 3, Experiment: 1, SummaryOnly: true}
	st := submit(t, ts, req)
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/summary?wait=1", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.IndexByte(body, '\n') != len(body)-1 {
		t.Fatalf("summary response is not one line:\n%s", body)
	}
	var sr server.SummaryResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	want := agg.NewSummary()
	for _, line := range direct(t, req) {
		var rec sink.Record
		if err := rec.UnmarshalJSON([]byte(line)); err != nil {
			t.Fatal(err)
		}
		want.Add(rec.Result)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sr.Summary, wantJSON) {
		t.Errorf("summary is not the canonical json.Marshal bytes:\n got %s\nwant %s", sr.Summary, wantJSON)
	}
}

// Summary-only jobs buffer nothing: Resident stays 0, the results
// endpoint answers 410 pointing at the summary, and the summary itself
// is byte-identical to a buffered run of the same request.
func TestSummaryOnlyJob(t *testing.T) {
	ts, _ := newServer(t, server.ManagerOptions{})
	req := server.JobRequest{Process: "parallel", Spec: "complete:24", Trials: 80, Seed: 4, Experiment: 7}

	buffered := submit(t, ts, req)
	want := getSummary(t, ts, fmt.Sprintf("%s/v1/jobs/%s/summary?wait=1", ts.URL, buffered.ID))

	req.SummaryOnly = true
	st := submit(t, ts, req)
	sr := getSummary(t, ts, fmt.Sprintf("%s/v1/jobs/%s/summary?wait=1", ts.URL, st.ID))
	if sr.State != server.StateDone || sr.Completed != req.Trials {
		t.Fatalf("summary-only job state/completed = %s/%d", sr.State, sr.Completed)
	}
	if !bytes.Equal(sr.Summary, want.Summary) {
		t.Errorf("summary-only summary differs from buffered run:\n%s\n%s", sr.Summary, want.Summary)
	}

	final := getStatus(t, ts, st.ID)
	if final.Resident != 0 {
		t.Errorf("summary-only job buffered %d results", final.Resident)
	}
	if !final.SummaryAvailable {
		t.Error("summary-only job does not report its summary available")
	}

	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/results", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("results of a summary-only job: status %d, want 410", resp.StatusCode)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(apiErr.Error), []byte("/summary")) {
		t.Errorf("410 body does not point at the summary endpoint: %q", apiErr.Error)
	}
}

// Eviction frees the result buffer but never the summary: after a full
// consume-and-evict cycle the status says so and the summary still
// serves.
func TestSummarySurvivesEviction(t *testing.T) {
	ts, _ := newServer(t, server.ManagerOptions{EvictConsumed: true})
	req := server.JobRequest{Process: "sequential", Spec: "cycle:16", Trials: 30, Seed: 2, Experiment: 3}
	st := submit(t, ts, req)

	before := getSummary(t, ts, fmt.Sprintf("%s/v1/jobs/%s/summary?wait=1", ts.URL, st.ID))
	stream(t, ts, st.ID, 0) // full consumption triggers eviction

	evicted := getStatus(t, ts, st.ID)
	if !evicted.Evicted {
		t.Fatal("job not evicted after full consumption")
	}
	if !evicted.SummaryAvailable {
		t.Error("evicted status does not report the summary available")
	}
	after := getSummary(t, ts, fmt.Sprintf("%s/v1/jobs/%s/summary", ts.URL, st.ID))
	if !bytes.Equal(before.Summary, after.Summary) {
		t.Error("summary changed across eviction")
	}

	// The results buffer itself is gone.
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/results", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("evicted results: status %d, want 410", resp.StatusCode)
	}
}

// A mid-run summary snapshot is internally consistent: Completed equals
// the trials folded in, even while the job is still appending.
func TestSummaryMidRunConsistency(t *testing.T) {
	ts, _ := newServer(t, server.ManagerOptions{})
	// A slow-ish job: large graph, many trials.
	req := server.JobRequest{Process: "sequential", Spec: "complete:64", Trials: 400, Seed: 5, Experiment: 1}
	st := submit(t, ts, req)
	for {
		sr := getSummary(t, ts, fmt.Sprintf("%s/v1/jobs/%s/summary", ts.URL, st.ID))
		var sum agg.Summary
		if err := json.Unmarshal(sr.Summary, &sum); err != nil {
			t.Fatalf("decode mid-run summary: %v", err)
		}
		if sum.Trials != int64(sr.Completed) {
			t.Fatalf("summary covers %d trials but response says %d completed", sum.Trials, sr.Completed)
		}
		if sr.State == server.StateDone {
			if sr.Completed != req.Trials {
				t.Fatalf("done with %d completed", sr.Completed)
			}
			return
		}
	}
}
