package shard_test

// throttle_test.go covers the coordinator's 429 handling end to end: an
// admission-control rejection with Retry-After must be obeyed as pacing,
// on a budget separate from the no-progress retry ladder.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"dispersion/server"
	"dispersion/shard"
)

// throttleFirst rejects the first n job submissions with
// 429 + Retry-After: 0, then forwards everything to the real server.
type throttleFirst struct {
	inner http.Handler
	mu    sync.Mutex
	n     int
}

func (h *throttleFirst) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
		h.mu.Lock()
		throttle := h.n > 0
		if throttle {
			h.n--
		}
		h.mu.Unlock()
		if throttle {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
			return
		}
	}
	h.inner.ServeHTTP(w, r)
}

// Three consecutive 429s exceed a 2-attempt retry budget, so the run
// only succeeds if throttled submissions are paced on their own budget
// instead of burning no-progress retries.
func TestSubmitHonorsRetryAfter(t *testing.T) {
	req := server.JobRequest{Process: "parallel", Spec: "complete:16", Trials: 5, Seed: 3}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			m, err := server.NewManager(server.ManagerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(&throttleFirst{inner: server.New(m), n: 3})
			t.Cleanup(func() {
				ts.Close()
				m.Close()
			})

			c := &shard.Coordinator{Servers: []string{ts.URL}, Shards: 1, Retries: 2, JitterSeed: 1}
			got, err := mode.run(context.Background(), c, req)
			if err != nil {
				t.Fatalf("%s through 3 throttled submissions: %v", mode.name, err)
			}
			if got != mode.want(t, req) {
				t.Fatal("throttled run diverged from contiguous Engine.Run")
			}
		})
	}
}
