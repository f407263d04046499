package shard

// backoff.go is the coordinator's retry-pacing policy: jittered
// exponential backoff for no-progress attempts, and a separate pacing
// path that honours a healthy server's Retry-After — on a 429
// admission-control rejection, or on a summary long poll that answered
// with the job still waiting — instead of burning the no-progress retry
// budget on it.

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"
)

// maxThrottles caps how many consecutive 429 rejections one shard obeys
// before treating sustained throttling as a failure. It is deliberately
// far above the no-progress retry budget: a throttled server is healthy
// and asking for time, not broken.
const maxThrottles = 64

// Throttle waits are clamped to this range regardless of what the
// server's Retry-After header asks for, so a misconfigured (or
// malicious) hint can neither spin-loop the coordinator nor park it for
// hours.
const (
	minThrottleWait = 100 * time.Millisecond
	maxThrottleWait = 30 * time.Second
)

// jitterSeed resolves the coordinator's backoff-jitter seed exactly
// once: the configured JitterSeed, or a random one.
func (c *Coordinator) jitterSeed() uint64 {
	c.seedOnce.Do(func() {
		if c.JitterSeed != 0 {
			c.seed = c.JitterSeed
			return
		}
		var b [8]byte
		if _, err := cryptorand.Read(b[:]); err == nil {
			c.seed = binary.LittleEndian.Uint64(b[:])
		}
		if c.seed == 0 {
			c.seed = 1
		}
	})
	return c.seed
}

// shardRNG returns the shard's private jitter source, seeded from the
// coordinator seed and the shard index so schedules are reproducible
// under an explicit JitterSeed yet distinct per shard.
func (c *Coordinator) shardRNG(idx int) *rand.Rand {
	return rand.New(rand.NewPCG(c.jitterSeed(), uint64(idx)))
}

// jitteredBackoff returns the wait before retry number fails (>= 1):
// exponential in fails with a 5s cap, drawn uniformly from
// [base/2, base) so concurrent followers of a recovering server spread
// out instead of retrying in lockstep.
func jitteredBackoff(rng *rand.Rand, fails int) time.Duration {
	base := min(250*time.Millisecond<<(fails-1), 5*time.Second)
	return base/2 + time.Duration(rng.Int64N(int64(base/2)))
}

// throttleWait returns how long to obey a server's Retry-After hint: the
// hint clamped to [minThrottleWait, maxThrottleWait], plus up to 50%
// jitter so paced shards do not all come back in the same instant.
func throttleWait(rng *rand.Rand, hint time.Duration) time.Duration {
	hint = min(max(hint, minThrottleWait), maxThrottleWait)
	return hint + time.Duration(rng.Int64N(int64(hint/2)+1))
}

// throttleError reports a 429 Too Many Requests submission rejection:
// the server's admission control shed the job and asked the client to
// come back after retryAfter. The coordinator obeys the hint on a
// separate throttle budget — a throttled submission made no progress,
// but the server is alive and explicitly pacing us, so it must not
// consume the no-progress retry budget reserved for real failures.
type throttleError struct {
	server     string
	retryAfter time.Duration
	msg        string
}

// Error renders the rejection with the server's pacing hint.
func (e *throttleError) Error() string {
	return fmt.Sprintf("submit to %s: throttled (429), retry after %s: %s", e.server, e.retryAfter, e.msg)
}

// parseRetryAfter reads a Retry-After header value as whole seconds
// (the only form the dispersion server emits), defaulting to 1s when
// absent or unparseable.
func parseRetryAfter(h string) time.Duration {
	if secs, err := strconv.ParseInt(h, 10, 64); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return time.Second
}
