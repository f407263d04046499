package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dispersion/agg"
	"dispersion/server"
)

// RunSummary is the coordinator's sketch-merge mode: instead of pulling
// every per-trial result over the network, it submits each shard as a
// summary_only job, long-polls the per-shard summary endpoints, and
// merges the returned sketches into one agg.Summary covering trials
// [req.FirstTrial, req.FirstTrial+req.Trials). Network traffic and
// coordinator memory are O(shards · sketch), not O(trials) — and
// because every sketch in dispersion/agg is a pure function of its
// trial multiset, the merged summary marshals to bytes identical to
// the summary of one contiguous unsharded run of the same request.
//
// req.SummaryOnly is forced on for every shard submission. Shards go
// through the same attempt loop as Run's: a failed or vanished shard
// job is resubmitted whole on the next server, with the no-progress
// budget reset whenever a poll observes the shard's completed-trial
// count advance. A poll that answers at the server's long-poll bound
// with the job still queued or running is polled again after its
// Retry-After, without consuming the budget.
//
// With Checkpoint set, each completed shard's summary is appended to a
// JSONL write-ahead log (pinned to the request by the same
// "<Checkpoint>.meta" sidecar mechanism as Run's result log) and
// fsynced, so a killed coordinator resumes by merging the logged
// shards and recomputing only the rest. The log is not interchangeable
// with Run's result log — use a distinct path per mode.
func (c *Coordinator) RunSummary(ctx context.Context, req server.JobRequest) (*agg.Summary, error) {
	req.SummaryOnly = true
	ranges, err := c.plan(req)
	if err != nil {
		return nil, err
	}
	have := make(map[int]json.RawMessage, len(ranges))
	var log *wal[summaryRecord]
	if c.Checkpoint != "" {
		// The split is a pure function of (FirstTrial, Trials, shard
		// count), so a record off the current split means the log
		// belongs to a different configuration. Shard completions are
		// rare (seconds to hours apart), so every record is synced.
		log, err = openWAL(c.Checkpoint, req, 1, appendSummaryRecord, func(rec summaryRecord) error {
			if rec.Shard < 0 || rec.Shard >= len(ranges) || ranges[rec.Shard] != (trialRange{rec.First, rec.Trials}) {
				return fmt.Errorf("record %d covers shard %d trials [%d,%d), which is not part of this split — was the shard count changed?",
					len(have), rec.Shard, rec.First, rec.First+rec.Trials)
			}
			if _, dup := have[rec.Shard]; dup {
				return fmt.Errorf("duplicate record for shard %d", rec.Shard)
			}
			have[rec.Shard] = rec.Summary
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	defer log.Close()

	type shardDone struct {
		idx     int
		summary json.RawMessage
		err     error
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan shardDone)
	outstanding := 0
	for i, rg := range ranges {
		if _, ok := have[i]; ok {
			continue
		}
		outstanding++
		go func() {
			m := &summaryMode{c: c}
			err := c.runShard(runCtx, i, rg, req, m)
			select {
			case done <- shardDone{idx: i, summary: m.summary, err: err}:
			case <-runCtx.Done():
			}
		}()
	}
	for ; outstanding > 0; outstanding-- {
		select {
		case d := <-done:
			rg := ranges[d.idx]
			if d.err != nil {
				return nil, fmt.Errorf("shard: shard %d (trials [%d,%d)): %w", d.idx, rg.first, rg.first+rg.trials, d.err)
			}
			if err := log.Append(summaryRecord{Shard: d.idx, First: rg.first, Trials: rg.trials, Summary: d.summary}); err != nil {
				return nil, fmt.Errorf("shard: summary checkpoint: %w", err)
			}
			have[d.idx] = d.summary
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	merged := agg.NewSummary()
	for i := range ranges {
		// Each sketch came from a decoded reply or from the log, so it is
		// valid JSON: json.Unmarshal's validating pre-pass would add
		// nothing to the decoder's own parse.
		var s agg.Summary
		if err := s.UnmarshalJSON(have[i]); err != nil {
			return nil, fmt.Errorf("shard: shard %d summary: %w", i, err)
		}
		if err := merged.Merge(&s); err != nil {
			return nil, fmt.Errorf("shard: merge shard %d: %w", i, err)
		}
	}
	if err := log.Close(); err != nil {
		return nil, fmt.Errorf("shard: summary checkpoint: %w", err)
	}
	return merged, nil
}

// summaryRecord is one line of the sketch-merge write-ahead log: a
// completed shard's range and summary JSON.
type summaryRecord struct {
	Shard   int             `json:"shard"`
	First   int             `json:"first"`
	Trials  int             `json:"trials"`
	Summary json.RawMessage `json:"summary"`
}

// appendSummaryRecord appends rec's JSON to dst: RunSummary's log
// encoder.
func appendSummaryRecord(dst []byte, rec summaryRecord) ([]byte, error) {
	b, err := json.Marshal(rec)
	return append(dst, b...), err
}

// summaryMode is RunSummary's shardMode: it long-polls the job's summary
// endpoint, keeps the latest snapshot, and resubmits the whole shard,
// since a dead job's partial sketch is not kept.
type summaryMode struct {
	c *Coordinator
	// summary is the latest snapshot; it covers exactly the trials the
	// job had completed, so the whole shard once all are done.
	summary json.RawMessage
}

func (*summaryMode) resubmit(rg trialRange, _ int) trialRange { return rg }

func (m *summaryMode) read(ctx context.Context, jobURL string, _ trialRange, from int) (int, server.State, time.Duration, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, jobURL+"/summary?wait=1", nil)
	if err != nil {
		return 0, "", 0, err
	}
	resp, err := m.c.client().Do(hreq)
	if err != nil {
		return 0, "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return 0, "", 0, errJobGone
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, "", 0, fmt.Errorf("summary: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var sr server.SummaryResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return 0, "", 0, fmt.Errorf("summary: %w", err)
	}
	m.summary = sr.Summary
	return max(sr.Completed-from, 0), sr.State, parseRetryAfter(resp.Header.Get("Retry-After")), nil
}
