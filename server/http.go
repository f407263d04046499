package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"dispersion"
	"dispersion/graphspec"
	"dispersion/sink"
)

// APIKeyHeader is the request header that names the submitting tenant
// for quota accounting and fair-share scheduling. Requests without it
// are accounted to the shared AnonymousTenant. The header is an
// identity, not a credential: the server applies quotas per key but does
// not authenticate keys.
const APIKeyHeader = "X-API-Key"

// DefaultSummaryMaxWait bounds the ?wait=1 summary long-poll when
// Server.SummaryMaxWait is zero: a request whose job is still running
// after this long gets the current snapshot plus a Retry-After hint
// instead of holding the handler goroutine indefinitely.
const DefaultSummaryMaxWait = 30 * time.Second

// MaxJobRequestBytes bounds the body of POST /v1/jobs: 16 MiB, room for
// a capacities vector of four million vertices at up to three digits
// each. A larger body answers 413 Request Entity Too Large before it is
// decoded in full.
const MaxJobRequestBytes = 16 << 20

// Server is the HTTP layer over a Manager: an http.Handler serving the
// /v1 job API documented in the package comment and README.md.
type Server struct {
	m   *Manager
	mux *http.ServeMux

	// SummaryMaxWait bounds how long a ?wait=1 summary request may block
	// before answering with the current (possibly non-terminal) snapshot
	// and a Retry-After header. 0 means DefaultSummaryMaxWait. Set it
	// before serving requests.
	SummaryMaxWait time.Duration
	// DisableMetrics makes GET /metrics answer 404. Set it before
	// serving requests.
	DisableMetrics bool
}

// New returns a Server over the given manager. The caller keeps ownership
// of the manager (and is responsible for closing it).
func New(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	s.mux.HandleFunc("GET /v1/jobs/{id}/summary", s.summary)
	s.mux.HandleFunc("GET /v1/jobs/{id}/results", s.results)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	s.mux.HandleFunc("GET /v1/processes", s.processes)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	return s
}

// ServeHTTP dispatches to the v1 routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// apiError is the JSON body of every non-2xx response.
type apiError struct {
	// Error is the human-readable failure message.
	Error string `json:"error"`
}

// writeJSON renders v as one line of compact JSON with the given status
// code. Compact output leaves a SummaryResponse's Summary in the
// canonical bytes agg.Summary.MarshalJSON wrote, which the shard
// coordinator decodes without encoding/json.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// fail renders an error response.
func fail(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// job resolves the {id} path element, rendering a 404 on a miss.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.m.Get(id)
	if !ok {
		fail(w, http.StatusNotFound, "unknown job %q", id)
	}
	return j, ok
}

// submit handles POST /v1/jobs: decode, validate, and queue the request
// under the tenant named by the X-API-Key header, echoing the new job's
// status with a Location header. A body over MaxJobRequestBytes answers
// 413. Admission-control rejections answer 429 Too Many Requests with a
// Retry-After header (in seconds, rounded up) carrying the scheduler's
// backoff hint.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxJobRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			fail(w, http.StatusRequestEntityTooLarge, "job request body over %d bytes", tooBig.Limit)
			return
		}
		fail(w, http.StatusBadRequest, "bad job request: %v", err)
		return
	}
	j, err := s.m.SubmitAs(r.Header.Get(APIKeyHeader), req)
	if errors.Is(err, ErrClosed) {
		fail(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	var qe *QuotaError
	if errors.As(err, &qe) {
		w.Header().Set("Retry-After", retryAfterSeconds(qe.RetryAfter))
		fail(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	if err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusCreated, j.Status())
}

// retryAfterSeconds renders a backoff hint as a Retry-After header value:
// integral seconds, rounded up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// metrics handles GET /metrics: the manager's control-plane counters in
// the Prometheus text exposition format (see Manager.WriteMetrics).
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	if s.DisableMetrics {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.m.WriteMetrics(w)
}

// list handles GET /v1/jobs.
func (s *Server) list(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.m.List())
}

// status handles GET /v1/jobs/{id}. With ?view=summary it answers the
// summary endpoint's body instead of the plain status.
func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("view") == "summary" {
		s.writeSummary(w, r, j)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// SummaryResponse is the body of GET /v1/jobs/{id}/summary (and of
// ?view=summary): the job's streaming aggregate plus enough status to
// interpret it.
type SummaryResponse struct {
	// ID is the job identifier; State its lifecycle state at snapshot
	// time.
	ID    string `json:"id"`
	State State  `json:"state"`
	// Completed is the number of trials folded into Summary — the two
	// are snapshotted atomically, so Summary covers exactly the first
	// Completed trials.
	Completed int `json:"completed"`
	// Summary is the agg.Summary JSON, byte for byte what json.Marshal
	// writes for it. Its rendering is canonical: merged shard summaries
	// over the same trial multiset are byte-identical to a contiguous
	// run's.
	Summary json.RawMessage `json:"summary"`
}

// summary handles GET /v1/jobs/{id}/summary: the job's streaming
// aggregate, available while the job runs (covering the trials
// completed so far), after it finishes, and — unlike the results
// buffer — after eviction. With ?wait=1 the request first blocks until
// the job reaches a terminal state, so one round trip fetches a final
// summary.
func (s *Server) summary(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.writeSummary(w, r, j)
}

// writeSummary renders a job's summary snapshot, honouring ?wait=1. The
// long-poll is bounded by Server.SummaryMaxWait: a job still running at
// the bound answers with its current snapshot and a Retry-After: 1
// header, so a never-finishing job cannot pin handler goroutines — the
// client polls again instead.
func (s *Server) writeSummary(w http.ResponseWriter, r *http.Request, j *Job) {
	if r.URL.Query().Get("wait") == "1" {
		maxWait := s.SummaryMaxWait
		if maxWait <= 0 {
			maxWait = DefaultSummaryMaxWait
		}
		ctx, cancel := context.WithTimeout(r.Context(), maxWait)
		st := j.Wait(ctx)
		cancel()
		if !st.State.Terminal() {
			w.Header().Set("Retry-After", "1")
		}
	}
	b, st, err := j.SummaryJSON()
	if err != nil {
		fail(w, http.StatusInternalServerError, "marshal summary: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, SummaryResponse{
		ID: st.ID, State: st.State, Completed: st.Completed, Summary: b,
	})
}

// cancel handles DELETE /v1/jobs/{id}. Cancellation is idempotent: the
// response is the job's status after the cancel took effect, with state
// "cancelled" unless the job had already finished.
func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	j.Cancel()
	// The run goroutine records the terminal state asynchronously; wait
	// for it so the response reflects the cancellation.
	writeJSON(w, http.StatusOK, j.Wait(r.Context()))
}

// TrailerJobState is the HTTP trailer the results stream sends when the
// job's terminal state ends it: "done", "failed", or "cancelled". A
// stream that stops without this trailer was cut by the transport (or by
// the client), not by the job — a resuming client (and the
// dispersion/shard coordinator) uses the distinction to decide between
// reconnecting with ?from= and resubmitting the remaining trial range.
const TrailerJobState = "X-Job-State"

// results handles GET /v1/jobs/{id}/results: an NDJSON stream of
// sink.Record lines in trial order, starting at line ?from= (default 0)
// and following the job live until it reaches a terminal state.
// Reconnecting with from = <number of lines already seen> resumes
// exactly, because trial i's result is a pure function of the job
// request. from addresses stream lines, not absolute trial indices: line
// p of a job carries trial FirstTrial+p.
//
// When the stream ends because the job reached a terminal state, that
// state is exposed as the TrailerJobState HTTP trailer.
//
// On a manager with EvictConsumed set, a fully consumed terminal job's
// buffer is dropped; re-reading lines below Completed then answers
// 410 Gone instead of silently serving an empty stream. Summary-only
// jobs never buffer results at all and answer 410 immediately; their
// aggregate is at the summary endpoint (also reachable here as
// ?view=summary).
func (s *Server) results(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("view") == "summary" {
		s.writeSummary(w, r, j)
		return
	}
	if j.Status().Request.SummaryOnly {
		fail(w, http.StatusGone,
			"job runs summary_only and buffers no results; GET /v1/jobs/%s/summary instead", j.ID())
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			fail(w, http.StatusBadRequest, "bad from=%q (want a non-negative line index)", q)
			return
		}
		from = v
	}
	// Registering the stream as a consumer defers buffer eviction
	// (ManagerOptions.EvictConsumed) until this request has finished.
	j.Retain()
	defer j.Release()
	st := j.Status()
	jobReq := st.Request
	if from > jobReq.Trials {
		fail(w, http.StatusBadRequest, "from=%d beyond the job's %d trials", from, jobReq.Trials)
		return
	}
	if st.Evicted && from < st.Completed {
		fail(w, http.StatusGone,
			"results evicted after full consumption; resubmit the job (or read the archive) to recover trials")
		return
	}
	first := jobReq.FirstTrial
	w.Header().Set("Trailer", TrailerJobState)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	out := sink.NewJSONL(w)
	// Only lines whose Write completed count as consumed for the
	// eviction policy, so a connection cut mid-line leaves that trial
	// unconsumed for the reconnect. A successful Write is still not a
	// delivery ack — bytes can die in socket buffers after the final
	// line, in which case the reconnect finds the range evicted (410)
	// and recovers by resubmitting the job, losslessly, since trial
	// results are pure functions of the request.
	delivered := from
	for i := from; ; i++ {
		res, ok := j.Next(r.Context(), i)
		if !ok {
			break
		}
		if err := out.Write(dispersion.Trial{Index: first + i, Result: res}); err != nil {
			j.MarkConsumed(from, delivered)
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		delivered = i + 1
	}
	j.MarkConsumed(from, delivered)
	// Next returns false either because the job is terminal or because
	// the client went away; only a terminal state ends the stream
	// authoritatively, and only then is the trailer sent.
	if st := j.Status().State; st.Terminal() {
		w.Header().Set(TrailerJobState, string(st))
	}
}

// processesResponse is the body of GET /v1/processes.
type processesResponse struct {
	// Processes lists the canonical names of every registered dispersion
	// process.
	Processes []string `json:"processes"`
	// GraphKinds lists the graph-family names a job Spec may use.
	GraphKinds []string `json:"graph_kinds"`
}

// processes handles GET /v1/processes.
func (s *Server) processes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, processesResponse{
		Processes:  dispersion.Processes(),
		GraphKinds: graphspec.Kinds(),
	})
}
