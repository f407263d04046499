// Package server turns the deterministic dispersion.Engine into a
// long-running simulation service: clients submit Jobs over HTTP and
// stream per-trial Results back as NDJSON while the job is still running.
//
// The package has two layers:
//
//   - Manager — the transport-independent job manager and scheduler. It
//     validates and admits submissions under per-tenant and global
//     budgets, dispatches queued jobs by weighted fair share, runs each
//     job on its own context under a bounded run-slot pool, buffers
//     results in trial order for resumable streaming, and optionally
//     persists every job's trials as JSONL through dispersion/sink.
//
//   - Server — the HTTP layer (an http.Handler) exposing the v1 API:
//
//     POST   /v1/jobs              submit a job (JSON body), returns its status
//     GET    /v1/jobs              list all job statuses
//     GET    /v1/jobs/{id}         poll one job's status and progress
//     GET    /v1/jobs/{id}/summary streaming aggregate (agg.Summary); ?wait=1 blocks until terminal
//     GET    /v1/jobs/{id}/results stream results as NDJSON; ?from=K resumes at line K
//     DELETE /v1/jobs/{id}         cancel a job
//     GET    /v1/processes         registered processes and graph-spec kinds
//     GET    /metrics              control-plane metrics, Prometheus text format
//     GET    /healthz              liveness probe
//
//     The status and results routes also accept ?view=summary, answering
//     the summary endpoint's body in place of their own.
//
//     Every JSON response is one line of compact JSON. The summary
//     endpoint's SummaryResponse.Summary is byte for byte the canonical
//     json.Marshal form of the job's agg.Summary, which the shard
//     coordinator decodes without reflection.
//
// # Control plane
//
// Submissions are accounted to a tenant: the value of the X-API-Key
// request header (APIKeyHeader), or the shared AnonymousTenant without
// one. Each tenant has a TenantQuota — fair-share weight plus optional
// caps on queued jobs, running jobs, and resident result-buffer bytes —
// from ManagerOptions.TenantQuotas or DefaultQuota. Admission control
// rejects submissions that would exceed a tenant or global budget with a
// typed *QuotaError, which the HTTP layer maps to 429 Too Many Requests
// plus a Retry-After header; nothing queues without bound, and queued
// jobs hold no goroutines (workers start at dispatch). Dispatch is
// stride scheduling over the per-tenant queues: under contention each
// tenant's dispatch share converges to its weight's share of the active
// weights. Within one tenant, jobs run highest priority first
// (JobRequest.Priority), submission order within a priority; a job with
// deadline_ms set fails without ever running if it cannot start in
// time. GET /metrics exposes queue depth, running and resident-byte
// gauges plus per-tenant submission/terminal-state/trial/rejection/
// eviction counters in the Prometheus text format, and the ?wait=1
// summary long-poll is bounded by Server.SummaryMaxWait (non-terminal
// answers carry Retry-After: 1).
//
// What a submission may ask the server to read or build is bounded too.
// A POST /v1/jobs body over MaxJobRequestBytes answers 413. A spec whose
// graph the cost model (graphspec.Spec.Cost) prices above
// ManagerOptions.MaxGraphBytes — 512 MiB by default — answers 400 before
// anything is allocated for it. Within that bound a job resolves its
// spec through the manager's graph cache, keyed by the spec's Canonical
// text (and by the seed for random families), before Engine.Run starts.
// Concurrent jobs and shards on one key wait for a single build, and
// later jobs reuse the kept graph. Each kept graph is charged its
// footprint plus a fixed entry overhead, and the least recently used
// graphs are evicted once the cache holds more than MaxGraphBytes. A
// graph that no second job has asked for waits in a probation segment
// of 8 graphs and 1/8 of the budget, so a sweep over sizes or fresh
// random seeds keeps little. The bound is on resident graphs:
// builds in progress, which can touch several times their modeled
// bytes, and evicted graphs still held by running jobs are not charged.
// Graphs are read-only, so sharing one never changes a result. /metrics
// reports the cache's hits, misses, evictions, bytes and entries.
//
// Every NDJSON line is a sink.Record: {"trial": i, "result": {...}}.
// Results are bit-for-bit identical to a direct Engine.Run with the same
// (seed, experiment, trials) — the engine derives trial i's randomness
// from the split stream (seed, experiment, i), independent of worker
// counts — so a stream interrupted after k lines and resumed with
// ?from=k continues without gaps, duplicates, or divergence. When the
// stream ends because the job reached a terminal state, that state is
// sent as the X-Job-State HTTP trailer (TrailerJobState), letting
// resuming clients tell a finished job from a cut connection.
//
// A job may be a shard of a larger logical run: first_trial offsets its
// trial range to [first_trial, first_trial+trials) while trial i keeps
// the split stream (seed, experiment, i), so disjoint-range jobs
// composed by dispersion/shard reproduce one contiguous run exactly.
//
// Completed results are kept in memory for the lifetime of the job by
// default (they are what makes ?from= resumption and late consumers
// possible), so a job's memory footprint is proportional to Trials times
// the per-Result size; use the JSONL persistence directory for archival
// beyond that. Long-lived servers can instead bound memory with
// ManagerOptions.EvictConsumed, which drops a job's buffer once it is
// terminal and its stream has been consumed through the final trial —
// re-reads of an evicted range then answer 410 Gone.
//
// # Summaries and eviction
//
// Independently of result buffering, every job folds each completed
// trial into a mergeable agg.Summary (moments, quantile sketch and
// makespan histogram over Makespan and TotalSteps) under the job lock.
// The summary is O(sketch) — kilobytes regardless of Trials — and is
// deliberately NOT dropped by EvictConsumed: after eviction the raw
// trials answer 410 Gone while the summary endpoint keeps serving, and
// Status.SummaryAvailable distinguishes "buffer evicted, aggregate
// still readable" from "nothing left". Jobs submitted with
// summary_only never buffer (or archive) results at all: the engine
// recycles Result memory between trials, the results endpoint answers
// 410 Gone from the start, and resident memory stays O(sketch) for
// arbitrarily large Trials — the mode built for million-trial runs
// that only need E[T], quantiles and the makespan CDF. With no results
// stream to feed, a summary-only job wakes no waiter per trial; Wait and
// the ?wait=1 long-poll wake on its terminal state.
package server
