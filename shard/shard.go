// Package shard fans one logical dispersion job out as disjoint
// trial-range shards across one or more dispersion servers and merges
// what the shards compute: their result streams into a single in-order
// callback (Run), or their agg.Summary sketches into one summary
// (RunSummary).
//
// The engine's determinism contract makes sharding trivial to state:
// trial i of a job always draws the split random stream
// (seed, experiment, i), so a server.JobRequest with FirstTrial = f and
// Trials = n computes exactly trials [f, f+n) of the one logical run —
// bit-identical to the corresponding slice of a contiguous run. The
// Coordinator splits [FirstTrial, FirstTrial+Trials) into K contiguous
// ranges, submits each as its own job (round-robin over the configured
// servers), follows the K jobs concurrently, and merges their output:
// Run delivers the results in strict trial order, exactly once.
//
// Both modes drive every shard through one attempt loop that retries
// failures. A read cut by the transport goes back to the same job — a
// result stream reconnects with ?from= advanced past the lines already
// consumed, so nothing is recomputed. A shard whose job dies
// (server restart, cancellation) is resubmitted on the next server: Run
// resubmits the trials not yet delivered, RunSummary the whole shard.
// The server's X-Job-State trailer (server.TrailerJobState) is what
// distinguishes a finished or dead job from a cut stream. A job that is
// only waiting — queued behind other jobs, or running a long trial — has
// not failed: a summary long poll that answers at the server's bound
// with the job still queued or running is polled again after its
// Retry-After.
//
// With Checkpoint set, the coordinator keeps a JSONL write-ahead log, so
// a killed coordinator resumes exactly where it stopped. Run logs every
// merged result before it reaches the callback; on the next Run the log
// is replayed to the callback from disk and only the remaining trial
// range is resubmitted. RunSummary logs every completed shard's summary
// and recomputes only the missing shards — see RunSummary.
package shard

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dispersion"
	"dispersion/server"
	"dispersion/sink"
)

// Coordinator fans one logical job out as disjoint trial-range shards.
// The zero value is not usable: at least one server URL is required.
type Coordinator struct {
	// Servers are the dispersion-server base URLs (e.g.
	// "http://host:8080") the shards are submitted to, round-robin by
	// shard index; retries rotate to the next server.
	Servers []string
	// Shards is K, the number of disjoint trial ranges the job is split
	// into. 0 means one shard per server. K is capped at the trial count.
	Shards int
	// Checkpoint is the path of the JSONL write-ahead log. A
	// "<Checkpoint>.meta" sidecar pins the log to its job request, so a
	// resume with different coordinates is rejected rather than mixing
	// stale results. Empty disables checkpointing: a killed coordinator
	// then restarts the run from scratch.
	Checkpoint string
	// Client is the HTTP client used for all requests; nil means
	// http.DefaultClient. Do not set a client Timeout: result streams of
	// long jobs are expected to stay open indefinitely.
	Client *http.Client
	// Retries caps the consecutive attempts a shard makes without
	// progress — a new result, or a summary poll showing the job's
	// completed-trial count grow — before the run is abandoned; attempts
	// that make progress reset the budget. 0 means 5. A server that is
	// healthy but asks for time does not consume this budget: a 429
	// admission-control rejection is obeyed on a separate, larger
	// throttle budget, and a summary long poll that answers at the
	// server's bound with the job still queued or running is simply
	// polled again, both after the server's Retry-After hint.
	Retries int
	// JitterSeed seeds the backoff jitter deterministically; 0 (the
	// default) draws a random seed, which is what decorrelates the retry
	// schedules of independent coordinators hitting one recovering
	// server. Set it only to make retry timing reproducible in tests.
	JitterSeed uint64

	seedOnce sync.Once
	seed     uint64
}

// trialRange is one shard's slice [first, first+trials) of the logical
// trial range.
type trialRange struct {
	first, trials int
}

// plan is the prelude both modes share. It mirrors the server's
// submit-time validation locally, so a malformed request fails before
// any shard is queued anywhere, and cuts [first, first+trials) into K
// contiguous non-empty ranges of near-equal size. The split depends only
// on (first, trials, K), so shard boundaries are stable across resumes.
func (c *Coordinator) plan(req server.JobRequest) ([]trialRange, error) {
	if len(c.Servers) == 0 {
		return nil, errors.New("shard: no servers configured")
	}
	probe := dispersion.Job{
		Process:    req.Process,
		Spec:       req.Spec,
		Origin:     req.Origin,
		Trials:     req.Trials,
		FirstTrial: req.FirstTrial,
	}
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	k := c.Shards
	if k <= 0 {
		k = len(c.Servers)
	}
	k = min(k, req.Trials)
	ranges := make([]trialRange, 0, k)
	for i := range k {
		lo := req.FirstTrial + i*req.Trials/k
		hi := req.FirstTrial + (i+1)*req.Trials/k
		if hi > lo {
			ranges = append(ranges, trialRange{first: lo, trials: hi - lo})
		}
	}
	return ranges, nil
}

// client returns the configured HTTP client.
func (c *Coordinator) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

// retries returns the configured no-progress attempt budget.
func (c *Coordinator) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 5
}

// resultSyncEvery is how many results Run's log may accumulate between
// fsyncs. A crash loses at most this many trials of progress — they are
// simply recomputed on resume — while million-trial runs avoid a sync
// per line.
const resultSyncEvery = 4096

// shardStream carries one shard's in-order results to the merger. err is
// set before ch is closed.
type shardStream struct {
	rg  trialRange
	ch  chan dispersion.Trial
	err error
}

// Run executes the logical job described by req — trials
// [req.FirstTrial, req.FirstTrial+req.Trials) of (seed, experiment) —
// across the coordinator's servers and delivers every result to each in
// strict trial order, exactly once: the merged stream is bit-identical
// to a single contiguous Engine.Run (or one unsharded server job) with
// the same coordinates. each may be nil to discard results.
//
// With Checkpoint set, results already in the log are replayed to each
// from disk first and only the remainder is computed, so Run is
// restartable: kill it at any point and call it again with the same
// request. The log must hold the contiguous trial prefix req.FirstTrial,
// req.FirstTrial+1, ... of this request. Run returns the first
// unrecoverable error — a context cancellation, a callback or checkpoint
// error, or a shard that exhausted its retry budget.
func (c *Coordinator) Run(ctx context.Context, req server.JobRequest, each func(dispersion.Trial) error) error {
	ranges, err := c.plan(req)
	if err != nil {
		return err
	}
	delivered := 0
	var log *wal[sink.Record]
	if c.Checkpoint != "" {
		log, err = openWAL(c.Checkpoint, req, resultSyncEvery, sink.AppendRecord, func(rec sink.Record) error {
			if want := req.FirstTrial + delivered; rec.Trial != want || delivered >= req.Trials {
				return fmt.Errorf("holds trial %d at record %d, want trial %d of %d — not this run's checkpoint",
					rec.Trial, delivered, want, req.Trials)
			}
			delivered++
			if each == nil {
				return nil
			}
			return each(dispersion.Trial{Index: rec.Trial, Result: rec.Result})
		})
		if err != nil {
			return err
		}
	}
	defer log.Close()

	// Clip away the prefix the log already holds.
	resumeFrom := req.FirstTrial + delivered
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var streams []*shardStream
	for _, rg := range ranges {
		end := rg.first + rg.trials
		if end <= resumeFrom {
			continue
		}
		rg.first = max(rg.first, resumeFrom)
		rg.trials = end - rg.first
		ss := &shardStream{rg: rg, ch: make(chan dispersion.Trial, 256)}
		idx := len(streams)
		streams = append(streams, ss)
		go func() {
			defer close(ss.ch)
			lr := lineReaders.Get().(*lineReader)
			defer lr.release()
			ss.err = c.runShard(runCtx, idx, rg, req, streamMode{c: c, ch: ss.ch, lr: lr})
		}()
	}

	// Merge: shards cover contiguous ranges in index order, so draining
	// them one after another yields the global trial order. Later shards
	// compute (and buffer server-side) while earlier ones drain.
	next := resumeFrom
	for i, ss := range streams {
		for tr := range ss.ch {
			if tr.Index != next {
				return fmt.Errorf("shard: shard %d delivered trial %d, want %d", i, tr.Index, next)
			}
			if err := log.Append(sink.Record{Trial: tr.Index, Result: tr.Result}); err != nil {
				return fmt.Errorf("shard: checkpoint: %w", err)
			}
			if each != nil {
				if err := each(tr); err != nil {
					return err
				}
			}
			next++
		}
		if ss.err != nil {
			return fmt.Errorf("shard: shard %d (trials [%d,%d)): %w", i, ss.rg.first, ss.rg.first+ss.rg.trials, ss.err)
		}
	}
	return log.Close()
}

// streamMode is Run's shardMode: it follows the job's NDJSON result
// stream, pushing every result into ch, and resubmits only the part of
// the shard not yet delivered. Every read of the shard reuses lr.
type streamMode struct {
	c  *Coordinator
	ch chan<- dispersion.Trial
	lr *lineReader
}

func (streamMode) resubmit(rg trialRange, done int) trialRange {
	return trialRange{first: rg.first + done, trials: rg.trials - done}
}

func (m streamMode) read(ctx context.Context, jobURL string, sub trialRange, from int) (int, server.State, time.Duration, error) {
	n, state, err := m.follow(ctx, jobURL, sub.first, from)
	if err == nil && !state.Terminal() && from+n < sub.trials {
		// A clean EOF without the trailer (e.g. a trailer-stripping proxy
		// between coordinator and server): the status endpoint
		// disambiguates a finished job from a cut connection.
		if st, ok := m.c.jobStatus(ctx, jobURL); ok && st.State.Terminal() {
			state = st.State
		} else {
			err = errors.New("stream ended without a job-state trailer")
		}
	}
	return n, state, 0, err
}

// follow streams the results of the job computing trials from first on,
// starting at line offset from, and pushes each record into ch after
// checking that indices continue in order. It returns the number of
// records pushed and, when the stream ended, the job state from the
// X-Job-State trailer; a transport-level interruption returns the error
// instead.
func (m streamMode) follow(ctx context.Context, jobURL string, first, from int) (int, server.State, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/results?from=%d", jobURL, from), nil)
	if err != nil {
		return 0, "", err
	}
	resp, err := m.c.client().Do(hreq)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return 0, "", errJobGone
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, "", fmt.Errorf("results: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	n := 0
	m.lr.br.Reset(resp.Body)
	for {
		line, rerr := m.lr.line()
		if rerr == io.EOF {
			if len(bytes.TrimSpace(line)) != 0 {
				// Data after the last newline: the connection was cut
				// mid-line; the reconnect re-requests the line whole.
				return n, "", fmt.Errorf("stream cut mid-line at record %d", from+n)
			}
			return n, server.State(resp.Trailer.Get(server.TrailerJobState)), nil
		}
		if rerr != nil {
			return n, "", rerr
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec sink.Record
		if err := rec.UnmarshalJSON(line); err != nil {
			return n, "", fmt.Errorf("bad result line %d: %w", from+n, err)
		}
		if want := first + from + n; rec.Trial != want {
			return n, "", fmt.Errorf("stream out of order: got trial %d, want %d", rec.Trial, want)
		}
		select {
		case m.ch <- dispersion.Trial{Index: rec.Trial, Result: rec.Result}:
		case <-ctx.Done():
			return n, "", ctx.Err()
		}
		n++
	}
}

// lineReaderSize is the buffer of a lineReader's reader: a result line
// up to this long is decoded in place, and only longer ones (record=true
// trajectories, say) are copied into the line buffer.
const lineReaderSize = 64 << 10

// maxPooledLine caps the line buffer a lineReader keeps when it goes back
// to the pool, so one huge record line does not stay resident.
const maxPooledLine = 1 << 20

// lineReaders recycles lineReaders across shard streams, so a stream
// allocates neither a reader nor per-line copies once the pool is warm.
var lineReaders = sync.Pool{New: func() any {
	return &lineReader{br: bufio.NewReaderSize(nil, lineReaderSize)}
}}

// lineReader reads newline-terminated lines from a stream into reused
// memory. A plain reader, not a Scanner: record=true result lines have no
// a-priori size bound, and a fixed cap would misread an oversized line as
// a transport failure.
type lineReader struct {
	br  *bufio.Reader
	buf []byte // holds lines longer than br's buffer
}

// line returns the next line, including its newline unless the stream
// ended first, with ReadBytes' errors. The line is valid only until the
// next call: it aliases the reader's buffer or lr.buf.
func (lr *lineReader) line() ([]byte, error) {
	line, err := lr.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	lr.buf = append(lr.buf[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = lr.br.ReadSlice('\n')
		lr.buf = append(lr.buf, line...)
	}
	return lr.buf, err
}

// release returns lr to the pool, dropping its stream and any oversized
// line buffer.
func (lr *lineReader) release() {
	lr.br.Reset(nil)
	if cap(lr.buf) > maxPooledLine {
		lr.buf = nil
	}
	lineReaders.Put(lr)
}
