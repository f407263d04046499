package shard

// attempt.go is the per-shard attempt loop both coordinator modes share:
// submission, server rotation, the no-progress budget, jittered backoff,
// 429 throttling, long-poll pacing and cancel-on-abandon.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"dispersion/server"
)

// A shardMode is what one coordinator mode plugs into runShard.
type shardMode interface {
	// resubmit returns the range a (re)submission covers, given the
	// shard's range and how many of its trials are already in hand.
	resubmit(rg trialRange, done int) trialRange
	// read reads the live job at jobURL, which computes range sub, once,
	// past the from trials already seen completed by earlier reads of it.
	// It returns how many more trials it saw completed, the job state
	// the server reported and, with a non-terminal state, the server's
	// Retry-After hint.
	read(ctx context.Context, jobURL string, sub trialRange, from int) (int, server.State, time.Duration, error)
}

// errJobGone reports that a shard's job no longer exists on its server
// (e.g. the server restarted), so reconnecting is pointless and the
// shard must be resubmitted.
var errJobGone = errors.New("job no longer exists on its server")

// runShard drives one shard to completion in mode m: submit the shard's
// range as a job and read it until every trial of rg is in hand. On any
// interruption it reads the live job again, or, when the job is dead or
// gone, resubmits the range m asks for on the next server.
func (c *Coordinator) runShard(ctx context.Context, idx int, rg trialRange, req server.JobRequest, m shardMode) (err error) {
	var (
		jobURL    string        // active job, "" when a (re)submit is needed
		sub       trialRange    // the active job's range
		done      int           // trials of rg in hand
		fails     int           // consecutive attempts with no progress
		throttles int           // consecutive 429-throttled submissions
		paced     bool          // the server asked the next attempt to wait
		hint      time.Duration // the server's Retry-After hint, when paced
		lastErr   error
	)
	rng := c.shardRNG(idx)
	// An abandoned exit leaves the active job computing a range nobody
	// will ever consume; cancel it so the server stops burning cores.
	defer func() {
		if err != nil && jobURL != "" {
			c.cancelJob(jobURL)
		}
	}()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if fails >= c.retries() {
			return fmt.Errorf("no progress after %d attempts: %w", fails, lastErr)
		}
		// A healthy server's Retry-After hint paces the next attempt.
		// Otherwise back off after a no-progress attempt, so a brief
		// outage — a server restart, say — does not burn the whole retry
		// budget in microseconds. Both waits are jittered, so K followers
		// of one recovering server spread out instead of retrying in
		// lockstep.
		var wait time.Duration
		switch {
		case paced:
			wait = throttleWait(rng, hint)
		case fails > 0:
			wait = jitteredBackoff(rng, fails)
		}
		paced = false
		if wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if jobURL == "" {
			// A fresh job has seen nothing completed yet, so what is in
			// hand is whatever precedes its range.
			sub = m.resubmit(rg, done)
			done = sub.first - rg.first
			shardReq := req
			shardReq.FirstTrial, shardReq.Trials = sub.first, sub.trials
			base := c.Servers[(idx+attempt)%len(c.Servers)]
			st, err := c.submit(ctx, base, shardReq)
			var te *throttleError
			if errors.As(err, &te) && throttles < maxThrottles {
				// Admission control shed the job: the server is healthy
				// and pacing us, so obey its Retry-After hint without
				// consuming the no-progress retry budget.
				throttles++
				lastErr = err
				paced, hint = true, te.retryAfter
				continue
			}
			if err != nil {
				lastErr = err
				fails++
				continue
			}
			throttles = 0
			jobURL = strings.TrimSuffix(base, "/") + "/v1/jobs/" + st.ID
		}
		n, state, retryAfter, err := m.read(ctx, jobURL, sub, rg.first+done-sub.first)
		done += n
		if n > 0 {
			fails = 0
		}
		if done == rg.trials {
			// Every trial of the range is in hand; whatever terminal
			// label the job ends up with afterwards (e.g. "failed"
			// because a server-side archive close failed) cannot change
			// the results, and resubmitting a zero-trial remainder would
			// be rejected anyway.
			return nil
		}
		switch {
		case err == nil && state == server.StateDone:
			// done == rg.trials returned above, so the job ended short
			// of the submitted range: a server-side bug.
			return fmt.Errorf("job reported done after %d of %d trials", done, rg.trials)
		case err == nil && state.Terminal():
			// The job failed or was cancelled; resubmit on the next
			// server. A deterministic failure will exhaust the retry
			// budget and surface here.
			lastErr = fmt.Errorf("job ended %s%s", state, c.jobError(ctx, jobURL))
			jobURL = ""
			fails++
		case err == nil && (state == server.StateQueued || state == server.StateRunning):
			// A bounded long poll answered before the job ended: the job
			// is alive and only waiting, which is not a failed attempt.
			// Read it again after the server's hint.
			paced, hint = true, retryAfter
		case errors.Is(err, errJobGone):
			lastErr = err
			jobURL = ""
			fails++
		default:
			// A transport cut, or an answer that makes no sense: the job
			// itself may be fine, so read it again.
			if err == nil {
				err = fmt.Errorf("job answered in unknown state %q", state)
			}
			lastErr = err
			fails++
		}
	}
}

// submit POSTs one shard's job request to the given server and returns
// the accepted status.
func (c *Coordinator) submit(ctx context.Context, base string, req server.JobRequest) (server.Status, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return server.Status{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(base, "/")+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return server.Status{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client().Do(hreq)
	if err != nil {
		return server.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return server.Status{}, &throttleError{
			server:     base,
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			msg:        string(bytes.TrimSpace(msg)),
		}
	}
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return server.Status{}, fmt.Errorf("submit to %s: HTTP %d: %s", base, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.Status{}, fmt.Errorf("submit to %s: %w", base, err)
	}
	return st, nil
}

// cancelJob best-effort DELETEs an abandoned job. It runs on its own
// short-lived context, because cleanup is needed exactly when the run
// context is already dead.
func (c *Coordinator) cancelJob(jobURL string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodDelete, jobURL, nil)
	if err != nil {
		return
	}
	resp, err := c.client().Do(hreq)
	if err != nil {
		return
	}
	resp.Body.Close()
}

// jobStatus polls the job's status endpoint, best-effort: ok is false
// when the job is unreachable or undecodable.
func (c *Coordinator) jobStatus(ctx context.Context, jobURL string) (server.Status, bool) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, jobURL, nil)
	if err != nil {
		return server.Status{}, false
	}
	resp, err := c.client().Do(hreq)
	if err != nil {
		return server.Status{}, false
	}
	defer resp.Body.Close()
	var st server.Status
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
		return server.Status{}, false
	}
	return st, true
}

// jobError fetches the dead job's failure message for error reporting,
// best-effort: it returns "" when the status is unreachable.
func (c *Coordinator) jobError(ctx context.Context, jobURL string) string {
	st, ok := c.jobStatus(ctx, jobURL)
	if !ok || st.Error == "" {
		return ""
	}
	return ": " + st.Error
}
