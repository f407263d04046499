// Command dispersion-server runs the dispersion simulation service: a
// long-running HTTP server that accepts Job submissions and streams
// per-trial results back as NDJSON while jobs execute under a weighted
// fair-share scheduler over the deterministic dispersion.Engine.
//
// Usage:
//
//	dispersion-server -addr :8080
//	dispersion-server -addr :8080 -max-jobs 4 -engine-workers 2
//	dispersion-server -results-dir /var/lib/dispersion
//	dispersion-server -max-queued 256 -tenant-quota 'teamA=weight:3,max-queued:64'
//	dispersion-server -max-graph-bytes 2147483648
//
// The API (see package dispersion/server and README.md for the full
// reference):
//
//	POST   /v1/jobs              submit a job (tenant = X-API-Key header)
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status and progress
//	GET    /v1/jobs/{id}/results NDJSON result stream (?from=K resumes)
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/processes         registered processes and graph kinds
//	GET    /metrics              Prometheus text-format metrics
//	GET    /healthz              liveness probe
//
// Quota flags take a comma-separated key:value list with keys weight,
// max-queued, max-running, and max-resident-bytes; -tenant-quota
// prefixes it with '<api key>=' and may repeat. Submissions over budget
// answer 429 with a Retry-After header. -max-graph-bytes (default 512
// MiB) bounds the modeled resident bytes of the graph a job may ask for
// — a larger spec answers 400 — and of the cache that keeps each built
// graph for later jobs on its spec; it does not bound the memory a
// build touches on its way. The server logs one structured
// key=value line per request and per scheduler transition.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight jobs are
// cancelled and open streams are closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dispersion/server"
)

// parseQuota parses a comma-separated key:value quota list, e.g.
// "weight:3,max-queued:64,max-resident-bytes:1000000".
func parseQuota(s string) (server.TenantQuota, error) {
	var q server.TenantQuota
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, ":")
		if !ok {
			return q, fmt.Errorf("quota field %q: want key:value", part)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil || n < 0 {
			return q, fmt.Errorf("quota field %q: want a non-negative integer", part)
		}
		switch strings.TrimSpace(key) {
		case "weight":
			q.Weight = int(n)
		case "max-queued":
			q.MaxQueued = int(n)
		case "max-running":
			q.MaxRunning = int(n)
		case "max-resident-bytes":
			q.MaxResidentBytes = n
		default:
			return q, fmt.Errorf("unknown quota key %q (want weight, max-queued, max-running, max-resident-bytes)", key)
		}
	}
	return q, nil
}

// statusWriter records the response status for the request log while
// forwarding http.Flusher, which the NDJSON results stream depends on.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status code.
func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Write defaults the recorded status to 200 on an implicit header.
func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so result streams stay
// incremental through the logging middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logRequests wraps h with a structured key=value request log.
func logRequests(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		tenant := r.Header.Get(server.APIKeyHeader)
		if tenant == "" {
			tenant = server.AnonymousTenant
		}
		log.Printf("evt=http method=%s path=%s tenant=%s status=%d dur_ms=%d",
			r.Method, r.URL.Path, tenant, sw.status, time.Since(start).Milliseconds())
	})
}

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		maxJobs       = flag.Int("max-jobs", 2, "jobs running concurrently; further submissions queue")
		engineWorkers = flag.Int("engine-workers", 0, "per-job engine workers (0 = one per core; never affects results)")
		resultsDir    = flag.String("results-dir", "", "archive every job's trials as <dir>/<job>.jsonl (empty = off)")
		evict         = flag.Bool("evict-consumed", false, "drop a job's in-memory results once it is terminal and its stream was fully consumed (re-reads answer 410)")
		maxQueued     = flag.Int("max-queued", 0, "global queued-job bound; submissions beyond it answer 429 (0 = default 1024)")
		maxResident   = flag.Int64("max-resident-bytes", 0, "global resident result-buffer byte budget; submissions over it answer 429 (0 = unbounded)")
		maxGraph      = flag.Int64("max-graph-bytes", server.DefaultMaxGraphBytes, "largest modeled resident graph a job may build (larger specs answer 400), and the byte budget of the cache of built graphs; builds in progress are not charged")
		metrics       = flag.Bool("metrics", true, "serve Prometheus metrics at GET /metrics")
		summaryWait   = flag.Duration("summary-max-wait", 0, "bound on the ?wait=1 summary long-poll (0 = 30s default)")
		retryAfter    = flag.Duration("retry-after", 0, "Retry-After hint on 429 rejections (0 = 1s default)")
	)
	defaultQuota := server.TenantQuota{}
	flag.Func("default-quota", "quota for tenants without a -tenant-quota entry, e.g. 'weight:1,max-queued:64'", func(s string) error {
		q, err := parseQuota(s)
		if err != nil {
			return err
		}
		defaultQuota = q
		return nil
	})
	tenantQuotas := map[string]server.TenantQuota{}
	flag.Func("tenant-quota", "per-tenant quota as '<api key>=<quota list>', e.g. 'teamA=weight:3,max-queued:64' (repeatable)", func(s string) error {
		name, spec, ok := strings.Cut(s, "=")
		if !ok || strings.TrimSpace(name) == "" {
			return fmt.Errorf("want '<api key>=<quota list>', got %q", s)
		}
		q, err := parseQuota(spec)
		if err != nil {
			return err
		}
		tenantQuotas[strings.TrimSpace(name)] = q
		return nil
	})
	flag.Parse()

	if *resultsDir != "" {
		if err := os.MkdirAll(*resultsDir, 0o755); err != nil {
			log.Fatalf("dispersion-server: %v", err)
		}
	}
	m, err := server.NewManager(server.ManagerOptions{
		MaxConcurrent:    *maxJobs,
		EngineWorkers:    *engineWorkers,
		ResultsDir:       *resultsDir,
		EvictConsumed:    *evict,
		MaxQueued:        *maxQueued,
		MaxResidentBytes: *maxResident,
		MaxGraphBytes:    *maxGraph,
		DefaultQuota:     defaultQuota,
		TenantQuotas:     tenantQuotas,
		RetryAfter:       *retryAfter,
		Logf:             log.Printf,
	})
	if err != nil {
		log.Fatalf("dispersion-server: %v", err)
	}
	api := server.New(m)
	api.SummaryMaxWait = *summaryWait
	api.DisableMetrics = !*metrics
	srv := &http.Server{Addr: *addr, Handler: logRequests(api)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		log.Print("dispersion-server: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			srv.Close()
		}
	}()

	log.Printf("evt=listen addr=%s max_jobs=%d max_queued=%d metrics=%t", *addr, *maxJobs, *maxQueued, *metrics)
	err = srv.ListenAndServe()
	// Cancel jobs after the listener stops accepting work, then wait for
	// the workers so JSONL archives are complete on exit — and for the
	// graceful Shutdown, so open result streams get their X-Job-State
	// trailer instead of an abrupt reset.
	m.Close()
	stop()
	<-shutdownDone
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("dispersion-server: %v", err)
	}
}
