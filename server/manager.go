package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dispersion"
	"dispersion/agg"
	"dispersion/graphspec"
	"dispersion/sink"
)

// JobRequest is a job submission: the JSON body of POST /v1/jobs. It is
// the serializable mirror of dispersion.Job plus the engine coordinates
// (seed, experiment) that pin the job's randomness.
type JobRequest struct {
	// Process is the registry name of the process to run, e.g. "parallel"
	// (see GET /v1/processes for the full list).
	Process string `json:"process"`
	// Spec is the textual graph-family spec, e.g. "torus:32x32".
	Spec string `json:"spec"`
	// Origin is the common start vertex (ignored under random origins).
	Origin int `json:"origin"`
	// Trials is the number of independent realizations to run.
	Trials int `json:"trials"`
	// FirstTrial offsets the job's trial range to
	// [FirstTrial, FirstTrial+Trials); trial i still draws the split
	// stream (Seed, Experiment, i), so an offset job is a shard: its
	// results are bit-identical to the corresponding slice of one
	// contiguous run with the same coordinates. The results stream
	// addresses lines by position within the job — line p of a shard is
	// trial FirstTrial+p.
	FirstTrial int `json:"first_trial,omitempty"`
	// Seed roots all randomness of the job, including random graph
	// families built from Spec. Equal requests reproduce results exactly.
	Seed uint64 `json:"seed"`
	// Experiment namespaces the trial streams (dispersion.Engine.Experiment).
	Experiment uint64 `json:"experiment"`
	// SummaryOnly skips result buffering (and archiving) entirely: the
	// job folds every trial into its agg.Summary and keeps nothing else,
	// so resident memory is O(sketch) no matter how many trials run. The
	// results endpoint answers 410 Gone; read the summary endpoint
	// instead. The engine recycles Result memory between trials
	// (dispersion.Engine.ReuseResults), making the per-trial hot path
	// allocation-free.
	SummaryOnly bool `json:"summary_only,omitempty"`
	// Priority orders the job within its tenant's queue: higher runs
	// first, ties dispatch in submission order. Priorities never cross
	// tenants — fair share between tenants is the scheduler's weight
	// mechanism, priority is a tenant ordering its own backlog. 0 is the
	// default priority.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS bounds how long the job may wait in the queue, in
	// milliseconds from submission: a job that has not started by its
	// deadline fails without ever running, freeing its slot for live
	// work. 0 means no deadline. The deadline does not bound the
	// running job — use Options.MaxSteps for that.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Options configure every trial identically.
	Options Options `json:"options"`
}

// Options is the JSON form of the dispersion functional options a job may
// set. The zero value configures nothing.
type Options struct {
	// Lazy makes every particle move as a lazy random walk (WithLazy).
	Lazy bool `json:"lazy,omitempty"`
	// Record keeps full trajectories in every Result (WithRecord). The
	// results stream then carries them; expect large lines.
	Record bool `json:"record,omitempty"`
	// Particles disperses k particles instead of one per vertex
	// (WithParticles); 0 leaves the default.
	Particles int `json:"particles,omitempty"`
	// RandomOrigins samples each particle's start vertex uniformly
	// (WithRandomOrigins).
	RandomOrigins bool `json:"random_origins,omitempty"`
	// MaxSteps truncates runs whose total step count exceeds it
	// (WithMaxSteps); 0 means unbounded.
	MaxSteps int64 `json:"max_steps,omitempty"`
	// RandomPriority resolves Parallel-process settlement conflicts by a
	// random priority permutation (WithRandomPriority).
	RandomPriority bool `json:"random_priority,omitempty"`
	// SettleParam parameterizes the settle-rule processes
	// (WithSettleParam): the per-visit settle probability of
	// "sequential-geom", the minimum step count of
	// "sequential-threshold". 0 leaves the process default.
	SettleParam float64 `json:"settle_param,omitempty"`
	// Capacity sets the per-vertex capacity of the capacity processes
	// (WithCapacity); 0 leaves the default capacity 2.
	Capacity int `json:"capacity,omitempty"`
	// Capacities gives every vertex its own capacity (WithCapacities);
	// empty leaves the scalar Capacity in charge.
	Capacities []int `json:"capacities,omitempty"`
	// Batch caps the blocks of trials stepped together on a table-backed
	// graph (WithBatch); elsewhere the job runs unbatched. It changes no
	// result; 0 keeps the unbatched path.
	Batch int `json:"batch,omitempty"`
}

// Build renders the JSON options as the equivalent dispersion functional
// options. It is the one JSON-to-options mapping in the repository:
// besides the server's own job submissions, the benchmark lab's suites
// files (internal/benchsuite, cmd/benchlab) reuse it so a configuration
// means exactly the same thing submitted over HTTP or benchmarked
// locally.
func (o Options) Build() []dispersion.Option {
	var opts []dispersion.Option
	if o.Lazy {
		opts = append(opts, dispersion.WithLazy())
	}
	if o.Record {
		opts = append(opts, dispersion.WithRecord())
	}
	if o.Particles > 0 {
		opts = append(opts, dispersion.WithParticles(o.Particles))
	}
	if o.RandomOrigins {
		opts = append(opts, dispersion.WithRandomOrigins())
	}
	if o.MaxSteps > 0 {
		opts = append(opts, dispersion.WithMaxSteps(o.MaxSteps))
	}
	if o.RandomPriority {
		opts = append(opts, dispersion.WithRandomPriority())
	}
	if o.SettleParam != 0 {
		opts = append(opts, dispersion.WithSettleParam(o.SettleParam))
	}
	if o.Capacity != 0 {
		opts = append(opts, dispersion.WithCapacity(o.Capacity))
	}
	if len(o.Capacities) > 0 {
		opts = append(opts, dispersion.WithCapacities(o.Capacities))
	}
	if o.Batch != 0 {
		opts = append(opts, dispersion.WithBatch(o.Batch))
	}
	return opts
}

// job renders the request as the engine's job description.
func (r JobRequest) job() dispersion.Job {
	return dispersion.Job{
		Process:    r.Process,
		Spec:       r.Spec,
		Origin:     r.Origin,
		Trials:     r.Trials,
		FirstTrial: r.FirstTrial,
		Options:    r.Options.Build(),
	}
}

// State is a job's position in its lifecycle.
type State string

// The job lifecycle: Queued -> Running -> one of the three terminal
// states Done, Failed, or Cancelled. A queued job may move straight to
// Cancelled (by Cancel or shutdown) or Failed (by its deadline).
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final, i.e. the job will produce
// no further results.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Status is a point-in-time snapshot of one job: the body of
// GET /v1/jobs/{id} and the elements of GET /v1/jobs.
type Status struct {
	// ID is the server-assigned job identifier.
	ID string `json:"id"`
	// State is the lifecycle state at snapshot time.
	State State `json:"state"`
	// Tenant is the tenant the job is accounted to: the submission's
	// X-API-Key, or "anonymous".
	Tenant string `json:"tenant,omitempty"`
	// Request echoes the accepted submission.
	Request JobRequest `json:"request"`
	// Completed is the number of trials finished so far; results with
	// index < Completed are available from the results endpoint (unless
	// the buffer has been evicted, see Evicted).
	Completed int `json:"completed"`
	// Resident is the number of results currently buffered in memory. It
	// equals Completed until the buffer is evicted, after which it is 0.
	Resident int `json:"resident"`
	// ResidentBytes estimates the heap footprint of the buffered
	// results; it is the quantity the resident-byte admission budgets
	// (ManagerOptions.MaxResidentBytes, TenantQuota.MaxResidentBytes)
	// account against, and drops to 0 on eviction.
	ResidentBytes int64 `json:"resident_bytes,omitempty"`
	// Evicted reports that the in-memory result buffer was released after
	// the job reached a terminal state and its stream was fully consumed
	// (ManagerOptions.EvictConsumed). Further result reads below
	// Completed answer 410 Gone; a configured ResultsDir archive still
	// holds every trial — and the job's summary survives eviction, so
	// aggregate statistics stay readable (see SummaryAvailable).
	Evicted bool `json:"evicted,omitempty"`
	// SummaryAvailable reports that the job's streaming aggregate can be
	// read from the summary endpoint. Every job aggregates as results
	// arrive, so this is true from the first completed trial on — and it
	// stays true after Evicted drops the result buffer: eviction frees
	// O(trials) result memory but never the O(sketch) summary.
	SummaryAvailable bool `json:"summary_available,omitempty"`
	// Error is the failure message for StateFailed jobs.
	Error string `json:"error,omitempty"`
	// SubmittedAt, StartedAt and FinishedAt track the lifecycle; the
	// latter two are zero until the transition happens.
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
}

// Job is one managed submission. All methods are safe for concurrent use;
// reads take point-in-time snapshots.
type Job struct {
	id          string
	req         JobRequest
	m           *Manager
	tenant      *tenant
	cancel      context.CancelFunc
	runCtx      context.Context
	evict       bool // ManagerOptions.EvictConsumed, frozen at submit
	summaryOnly bool // JobRequest.SummaryOnly, frozen at submit
	spec        graphspec.Spec
	priority    int
	deadline    time.Time // zero = no queue deadline

	// queued and deadlineTimer belong to the scheduler and are guarded
	// by Manager.mu, never j.mu.
	queued        bool
	deadlineTimer *time.Timer

	mu        sync.Mutex
	notify    chan struct{} // closed and replaced on every buffered append / state change
	results   []*dispersion.Result
	summary   *agg.Summary // fold-as-you-go aggregate, survives eviction
	count     int          // trials completed, surviving buffer eviction
	bytes     int64        // estimated resident bytes of results
	consumed  int          // high-water mark of results delivered via Next
	retained  int          // active results consumers (Retain/Release)
	evicted   bool
	state     State
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// ID returns the server-assigned job identifier.
func (j *Job) ID() string { return j.id }

// submittedAt returns the submission time. It is written once before the
// job is published, so it needs no lock.
func (j *Job) submittedAt() time.Time { return j.submitted }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked builds a status snapshot. Callers must hold j.mu.
func (j *Job) statusLocked() Status {
	return Status{
		ID:               j.id,
		State:            j.state,
		Tenant:           j.tenant.name,
		Request:          j.req,
		Completed:        j.count,
		Resident:         len(j.results),
		ResidentBytes:    j.bytes,
		Evicted:          j.evicted,
		SummaryAvailable: j.count > 0,
		Error:            j.errMsg,
		SubmittedAt:      j.submitted,
		StartedAt:        j.started,
		FinishedAt:       j.finished,
	}
}

// Cancel asks the job to stop. A queued job is removed from its tenant's
// queue and transitions to cancelled immediately; a running job's
// context is cancelled and the worker records the terminal state. It is
// idempotent; cancelling a terminal job has no effect.
func (j *Job) Cancel() {
	if j.m != nil && j.m.cancelQueued(j) {
		j.cancel()
		return
	}
	j.cancel()
}

// broadcast wakes every waiter. Callers must hold j.mu.
func (j *Job) broadcast() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// append records one completed trial, in order: the result is folded
// into the job's summary and, unless the job is summary-only, buffered
// for the results stream (charging its estimated bytes to the job's
// tenant and the manager's global resident budget). Summary-only jobs
// run under Engine.ReuseResults, so res must not be retained for them.
func (j *Job) append(res *dispersion.Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.summary.Add(res)
	if !j.summaryOnly {
		j.results = append(j.results, res)
		sz := resultBytes(res)
		j.bytes += sz
		j.tenant.resident.Add(sz)
		j.m.resident.Add(sz)
	}
	j.tenant.trials.Add(1)
	j.count++
	// Only a results stream waits on each trial. A summary-only job has
	// none; Wait and ?wait=1 wake on the terminal setState.
	if !j.summaryOnly {
		j.broadcast()
	}
}

// SummaryJSON marshals the job's streaming aggregate atomically with a
// status snapshot, so the returned completed-trials count is exactly
// the number of results folded into the returned bytes.
func (j *Job) SummaryJSON() ([]byte, Status, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// MarshalJSON writes the canonical bytes; json.Marshal would only
	// scan them a second time.
	b, err := j.summary.MarshalJSON()
	return b, j.statusLocked(), err
}

// Retain registers an active results consumer (a streaming request).
// While any consumer is retained the buffer is never evicted, so a stream
// that began before the job finished can always run to its end. Pair
// every Retain with exactly one Release.
func (j *Job) Retain() {
	j.mu.Lock()
	j.retained++
	j.mu.Unlock()
}

// Release ends a Retain registration and applies the eviction policy: on
// a manager with EvictConsumed set, once the job is terminal, its stream
// has been consumed through the final result (see MarkConsumed), and no
// consumer remains registered, the in-memory buffer is dropped.
func (j *Job) Release() {
	j.mu.Lock()
	j.retained--
	j.maybeEvictLocked()
	j.mu.Unlock()
}

// MarkConsumed records that a consumer successfully delivered every
// result line in [from, to) to its client. Consumption is tracked as a
// contiguous prefix: a range starting at or below the current mark
// extends it, while a range that would leave an undelivered gap below is
// ignored — so a reader that only ever streamed ?from=5 never lets
// results 0..4 be evicted. Callers must mark only lines whose writes
// completed; fetching a result with Next does not count as consumption.
func (j *Job) MarkConsumed(from, to int) {
	j.mu.Lock()
	if from <= j.consumed && to > j.consumed {
		j.consumed = to
	}
	j.maybeEvictLocked()
	j.mu.Unlock()
}

// maybeEvictLocked drops the result buffer when the eviction conditions
// hold, refunding its bytes to the tenant and global resident budgets.
// Callers must hold j.mu.
func (j *Job) maybeEvictLocked() {
	if j.evict && !j.evicted && j.retained == 0 && j.state.Terminal() && j.consumed == j.count {
		j.results = nil
		j.evicted = true
		if j.bytes > 0 {
			j.tenant.resident.Add(-j.bytes)
			j.m.resident.Add(-j.bytes)
			j.bytes = 0
		}
		j.tenant.evictions.Add(1)
	}
}

// setState moves the job to a new lifecycle state, stamping the
// transition time. Terminal states never change again.
func (j *Job) setState(s State, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = s
	j.errMsg = errMsg
	switch {
	case s == StateRunning:
		j.started = time.Now()
	case s.Terminal():
		j.finished = time.Now()
		// A consumer may already have drained every result while the job
		// was still running; the terminal transition is then the moment
		// the buffer becomes evictable.
		j.maybeEvictLocked()
	}
	j.broadcast()
}

// Next blocks until trial i's result is available and returns it, or
// returns false once the job is terminal with fewer than i+1 results (or
// ctx is done, or the buffer was evicted). Results arrive in index order,
// so callers stream by calling Next with i = from, from+1, from+2, ...
// Fetching a result does not mark it consumed for the EvictConsumed
// policy — a streaming frontend reports successful deliveries with
// MarkConsumed, so a write that fails mid-line never counts.
func (j *Job) Next(ctx context.Context, i int) (*dispersion.Result, bool) {
	for {
		j.mu.Lock()
		if i < len(j.results) {
			res := j.results[i]
			j.mu.Unlock()
			return res, true
		}
		terminal := j.state.Terminal() || j.evicted
		wait := j.notify
		j.mu.Unlock()
		if terminal {
			return nil, false
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, false
		}
	}
}

// Wait blocks until the job reaches a terminal state (or ctx is done)
// and returns the latest status snapshot.
func (j *Job) Wait(ctx context.Context) Status {
	for {
		j.mu.Lock()
		terminal := j.state.Terminal()
		wait := j.notify
		j.mu.Unlock()
		if terminal {
			return j.Status()
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return j.Status()
		}
	}
}

// ManagerOptions configure a Manager.
type ManagerOptions struct {
	// MaxConcurrent caps how many jobs run simultaneously; further
	// submissions queue. 0 means 2.
	MaxConcurrent int
	// EngineWorkers is passed to dispersion.Engine.Workers for every job:
	// the per-job degree of parallelism, the job's own goroutine counted.
	// 0 means one worker per core; at 1 a job runs its trials on its own
	// goroutine alone. The setting affects scheduling only, never results.
	EngineWorkers int
	// ResultsDir, when non-empty, makes the manager persist every job's
	// trials to <ResultsDir>/<job id>.jsonl through a dispersion/sink
	// JSONL writer as they complete. NewManager probes the directory for
	// writability so a misconfigured path fails at construction, not at
	// the first job's expense.
	ResultsDir string
	// EvictConsumed bounds the memory of long-lived servers: once a job
	// is terminal, its results stream has been consumed through the final
	// trial, and no stream is still attached, the job's in-memory result
	// buffer is dropped. Status metadata (including Completed) survives;
	// re-reading an evicted range answers 410 Gone, and a ResultsDir
	// archive, if configured, still holds every trial. Off by default:
	// the historical contract keeps results for the job's lifetime so
	// completed streams can be re-read at will.
	EvictConsumed bool
	// MaxQueued caps the total number of queued jobs across all tenants;
	// submissions beyond it are rejected with a QuotaError (HTTP 429).
	// 0 means DefaultMaxQueued.
	MaxQueued int
	// MaxResidentBytes caps the estimated bytes of completed results
	// buffered in memory across all tenants; once at or above it,
	// submissions are rejected with a QuotaError until streams are
	// consumed (and, with EvictConsumed, evicted). 0 means no global
	// byte budget.
	MaxResidentBytes int64
	// DefaultQuota applies to every tenant without an entry in
	// TenantQuotas. The zero value means weight 1 and no per-tenant
	// caps.
	DefaultQuota TenantQuota
	// TenantQuotas assigns specific tenants (API keys) their own quotas
	// and fair-share weights.
	TenantQuotas map[string]TenantQuota
	// MaxGraphBytes bounds the resident size of one job's graph, in
	// modeled bytes (graphspec.Spec.Cost): a submission whose spec
	// models more is rejected as invalid (HTTP 400) before anything is
	// allocated for it. The same figure budgets the manager's cache of
	// built graphs, which keeps each graph for later jobs and shards on
	// its spec and evicts the least recently used beyond the budget;
	// each kept graph is charged its footprint plus a fixed entry
	// overhead. Graphs no second job has asked for stay in a small
	// probation segment (8 graphs, 1/8 of the budget), so traffic that
	// never repeats a spec keeps little. Every job's graph goes through
	// the cache.
	//
	// The bound is on resident graphs, not on the memory a build
	// touches on its way: a regular:N,D build holds its stub list, its
	// edge set and its builder besides the CSR it returns, about four
	// to five times the modeled bytes. Builds in progress (up to
	// MaxConcurrent at once) and evicted graphs that running jobs still
	// hold are not charged to the cache. 0 means DefaultMaxGraphBytes.
	MaxGraphBytes int64
	// RetryAfter is the backoff hint attached to admission rejections
	// (the HTTP Retry-After header). 0 means DefaultRetryAfter.
	RetryAfter time.Duration
	// Logf, when set, receives structured (key=value) scheduler and
	// lifecycle logs: admissions, rejections, dispatches, deadline
	// expiries, and terminal transitions. log.Printf is a suitable
	// value.
	Logf func(format string, args ...any)
}

// ErrClosed is returned by Submit once Close has begun; the HTTP layer
// maps it to 503.
var ErrClosed = errors.New("server: manager is shutting down")

// Manager owns the job table and the scheduler. Create one with
// NewManager and shut it down with Close.
//
// Scheduling model: every job belongs to a tenant (its API key, or the
// shared "anonymous" tenant) and waits in that tenant's queue — ordered
// by priority, then submission — until the stride scheduler dispatches
// it. Tenants with queued work are served in proportion to their
// TenantQuota.Weight; admission control rejects submissions that would
// exceed queue or resident-byte budgets with a typed QuotaError instead
// of queuing without bound. Queued jobs consume no goroutines: workers
// are started at dispatch, so a submission flood costs O(1) goroutines
// regardless of backlog depth.
type Manager struct {
	opts     ManagerOptions
	runID    string
	baseCtx  context.Context
	stop     context.CancelFunc
	wg       sync.WaitGroup
	resident atomic.Int64 // estimated resident result bytes, all tenants
	graphs   *graphCache

	mu          sync.Mutex
	closed      bool
	nextID      int
	jobs        map[string]*Job
	order       []string
	tenants     map[string]*tenant
	tenantOrder []string
	queued      int    // jobs waiting across all tenant queues
	running     int    // jobs currently executing
	vtime       uint64 // scheduler virtual time: pass of the last dispatch
}

// NewManager returns a running manager with the given options. When
// ResultsDir is set, the directory is probed for writability so a
// misconfigured archive path fails fast here instead of failing every
// job at run time.
func NewManager(opts ManagerOptions) (*Manager, error) {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 2
	}
	if opts.MaxGraphBytes <= 0 {
		opts.MaxGraphBytes = DefaultMaxGraphBytes
	}
	if opts.ResultsDir != "" {
		f, err := os.CreateTemp(opts.ResultsDir, ".probe-*")
		if err != nil {
			return nil, fmt.Errorf("server: results dir %q not writable: %w", opts.ResultsDir, err)
		}
		name := f.Name()
		f.Close()
		os.Remove(name)
	}
	// Job IDs embed a per-manager random run component so a restarted
	// server never reuses an ID — and never truncates a previous run's
	// JSONL archive in the same ResultsDir.
	var buf [3]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return nil, fmt.Errorf("server: no entropy for run id: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		opts:    opts,
		runID:   hex.EncodeToString(buf[:]),
		baseCtx: ctx,
		stop:    cancel,
		graphs:  newGraphCache(opts.MaxGraphBytes),
		jobs:    map[string]*Job{},
		tenants: map[string]*tenant{},
	}, nil
}

// Submit queues a request for the shared anonymous tenant. It is
// SubmitAs with an empty API key — see SubmitAs for the admission and
// scheduling contract.
func (m *Manager) Submit(req JobRequest) (*Job, error) {
	return m.SubmitAs("", req)
}

// SubmitAs validates the request and, if it is well-formed and within
// the tenant's and the server's admission budgets, queues it for
// fair-share dispatch, returning the new job. The tenant is the
// submission's API key; an empty key is accounted to the shared
// AnonymousTenant. Validation failures — among them a spec whose
// modeled graph exceeds MaxGraphBytes — are reported synchronously and
// leave no job behind; budget exhaustion returns a *QuotaError (mapped
// to 429 + Retry-After by the HTTP layer); after Close has begun it
// reports ErrClosed. A spec whose arguments do not parse passes
// validation and fails its job at run time, when the build reports the
// argument error.
func (m *Manager) SubmitAs(tenantName string, req JobRequest) (*Job, error) {
	if err := req.job().Validate(); err != nil {
		return nil, err
	}
	spec, err := graphspec.Parse(req.Spec)
	if err != nil {
		return nil, err
	}
	cost, costErr := spec.Cost()
	if costErr == nil && cost.Bytes > m.opts.MaxGraphBytes {
		return nil, fmt.Errorf("server: spec %q models %d graph bytes, over the %d allowed (MaxGraphBytes)",
			req.Spec, cost.Bytes, m.opts.MaxGraphBytes)
	}
	if req.DeadlineMS < 0 {
		return nil, fmt.Errorf("server: deadline_ms must be non-negative, got %d", req.DeadlineMS)
	}
	name := normalizeTenant(tenantName)
	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &Job{
		req:         req,
		m:           m,
		cancel:      cancel,
		runCtx:      ctx,
		evict:       m.opts.EvictConsumed,
		summaryOnly: req.SummaryOnly,
		spec:        spec,
		priority:    req.Priority,
		notify:      make(chan struct{}),
		summary:     agg.NewSummary(),
		state:       StateQueued,
		submitted:   time.Now(),
	}
	if req.DeadlineMS > 0 {
		j.deadline = j.submitted.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		cancel()
		return nil, ErrClosed
	}
	t := m.tenantLocked(name)
	if err := m.admitLocked(t); err != nil {
		cancel()
		return nil, err
	}
	m.nextID++
	j.id = fmt.Sprintf("j%s-%06d", m.runID, m.nextID)
	j.tenant = t
	t.submitted++
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.enqueueLocked(j)
	if !j.deadline.IsZero() {
		j.deadlineTimer = time.AfterFunc(time.Until(j.deadline), func() { m.expireJob(j) })
	}
	m.logf("evt=admit tenant=%s job=%s priority=%d deadline_ms=%d queued=%d",
		t.name, j.id, j.priority, req.DeadlineMS, m.queued)
	m.dispatchLocked()
	return j, nil
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List snapshots every job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Close rejects further submissions, cancels every queued and running
// job, and waits for all workers to exit (so configured JSONL archives
// are complete when it returns).
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	// Queued jobs have no goroutine to observe the context: cancel them
	// here, under the same lock that fences dispatch.
	for _, t := range m.tenants {
		for _, j := range t.queue {
			j.queued = false
			if j.deadlineTimer != nil {
				j.deadlineTimer.Stop()
			}
			t.cancelled++
			j.setState(StateCancelled, "")
			j.cancel()
		}
		t.queue = nil
	}
	m.queued = 0
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()
}

// run executes one dispatched job: stream trials into the job buffer
// (and the JSONL archive, if configured), record the terminal state, and
// hand the freed slot back to the scheduler.
func (m *Manager) run(ctx context.Context, j *Job) {
	defer m.wg.Done()
	defer j.cancel()
	defer m.finishJob(j)
	if ctx.Err() != nil {
		j.setState(StateCancelled, "")
		return
	}
	j.setState(StateRunning, "")

	each := j.appendEach()
	var archive *os.File
	if m.opts.ResultsDir != "" && !j.summaryOnly {
		f, err := os.Create(filepath.Join(m.opts.ResultsDir, j.id+".jsonl"))
		if err != nil {
			j.setState(StateFailed, err.Error())
			return
		}
		archive = f
		each = sink.Tee(sinkFunc(each), sink.NewJSONL(f))
	}

	eng := dispersion.Engine{
		Seed:       j.req.Seed,
		Experiment: j.req.Experiment,
		Workers:    m.opts.EngineWorkers,
		// A summary-only job retains nothing per trial — the fold reads
		// scalars only — so the engine can recycle Result memory.
		ReuseResults: j.summaryOnly,
	}
	// Every job on one spec (and, for random families, one seed) shares
	// one graph: Build is deterministic in (spec, seed), so the cached
	// graph is the one Engine.Run would have built from the spec.
	g, err := m.graphs.get(ctx, j.spec, j.req.Seed)
	if err == nil {
		job := j.req.job()
		job.Graph = g
		err = eng.Run(ctx, job, each)
	}
	// Close the archive before the terminal-state transition: a close
	// error means the archive may have lost its final buffered bytes, and
	// a job must not report done over a truncated archive.
	if archive != nil {
		if cerr := archive.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("results archive: %w", cerr)
		}
	}
	switch {
	case err == nil:
		j.setState(StateDone, "")
	case errors.Is(err, context.Canceled):
		j.setState(StateCancelled, "")
	default:
		j.setState(StateFailed, err.Error())
	}
}

// appendEach returns the Engine.Run callback that feeds the job buffer.
func (j *Job) appendEach() func(dispersion.Trial) error {
	return func(t dispersion.Trial) error {
		j.append(t.Result)
		return nil
	}
}

// sinkFunc adapts a plain callback to the sink.Writer interface so it can
// be teed with real sinks.
type sinkFunc func(dispersion.Trial) error

// Write invokes the wrapped callback.
func (f sinkFunc) Write(t dispersion.Trial) error { return f(t) }
