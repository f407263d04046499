package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"dispersion"
	"dispersion/agg"
	"dispersion/internal/rng"
	"dispersion/server"
	"dispersion/shard"
)

// loopServer is one in-process dispersion server on a loopback port.
type loopServer struct {
	mgr  *server.Manager
	hs   *http.Server
	url  string
	done chan error
}

func startServer() (*loopServer, error) {
	mgr, err := server.NewManager(server.ManagerOptions{MaxConcurrent: 1, EngineWorkers: 1, EvictConsumed: true})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	s := &loopServer{mgr: mgr, hs: &http.Server{Handler: server.New(mgr)}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for Serve to return, and shuts the
// manager down.
func (s *loopServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
	s.mgr.Close()
}

// service is the service workload's system under test: two loopback
// servers and the transport the coordinator's client uses. At most one
// connection per server keeps the run at two connections.
type service struct {
	servers   []*loopServer
	transport *http.Transport
}

func startService() (*service, error) {
	svc := &service{transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	for range 2 {
		s, err := startServer()
		if err != nil {
			svc.close()
			return nil, err
		}
		svc.servers = append(svc.servers, s)
	}
	return svc, nil
}

func (svc *service) close() {
	svc.transport.CloseIdleConnections()
	for _, s := range svc.servers {
		s.close()
	}
}

// coordinator returns a two-shard coordinator over the servers; with a
// tracer its client records a span per request.
func (svc *service) coordinator(seed uint64, tr *tracer) *shard.Coordinator {
	var rt http.RoundTripper = svc.transport
	if tr != nil {
		rt = &tracingTransport{base: svc.transport, tr: tr}
	}
	urls := make([]string, len(svc.servers))
	for i, s := range svc.servers {
		urls[i] = s.url
	}
	return &shard.Coordinator{Servers: urls, Shards: 2, Client: &http.Client{Transport: rt}, JitterSeed: derive(seed, tagJitter) | 1}
}

// jobs reads every job's status from each server's GET /v1/jobs, keyed
// "host/v1/jobs/<id>" like the HTTP span attributes.
func (svc *service) jobs(ctx context.Context) (map[string]server.Status, error) {
	out := map[string]server.Status{}
	client := &http.Client{Transport: svc.transport}
	for _, s := range svc.servers {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/jobs", nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		var sts []server.Status
		err = json.NewDecoder(resp.Body).Decode(&sts)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("list jobs: %w", err)
		}
		host := req.URL.Host
		for _, st := range sts {
			out[host+"/v1/jobs/"+st.ID] = st
		}
	}
	return out, nil
}

type opKind uint8

const (
	opSummary opKind = iota
	opStream
)

func (k opKind) String() string {
	if k == opSummary {
		return "summary"
	}
	return "stream"
}

// op is one closed-loop client operation.
type op struct {
	Index int
	Kind  opKind
	Req   server.JobRequest
	Check bool // re-run in-process after the timed phase
}

// opSlots is one block of the service mix, shuffled per block by the
// workload seed: three summary ops on complete:256 for every one on
// wcomplete:512,1 (so p50 and p95 each fall inside one latency cluster),
// and as many stream ops as summary ops.
//
// The trial counts are a choice, checked by measurement rather than taken
// from a source: 64 trials a summary op (32 per shard job) and 32 a stream
// op (16 NDJSON lines per shard). The traced run prints each op class's
// p50 latency beside the p50 run time of its slowest shard job. On 2 vCPUs
// of a shared Xeon VM (seed 3) the job runs were 36% of a complete:256
// summary op (1.1 of 3.0 ms), 8% of a stream op (0.6 of 8.1 ms) and 96% of
// a wcomplete:512,1 summary op (45 of 47 ms, 32 ms of it the graph build).
// So HTTP, scheduling, summary JSON and merging take most of a
// complete:256 summary op, NDJSON most of a stream op, and the graph
// builds most of a wcomplete:512,1 op, while simulation stays a visible
// share of the first.
var opSlots = []struct {
	kind      opKind
	spec      string
	particles int
	trials    int
}{
	{opSummary, "complete:256", 0, 64},
	{opSummary, "complete:256", 0, 64},
	{opSummary, "complete:256", 0, 64},
	{opSummary, "wcomplete:512,1", 96, 64},
	{opStream, "complete:256", 0, 32},
	{opStream, "complete:256", 0, 32},
	{opStream, "complete:256", 0, 32},
	{opStream, "complete:256", 0, 32},
}

// checkEvery is the share of ops (one in checkEvery, chosen by seed) whose
// outputs are re-derived in-process after the timed phase.
const checkEvery = 8

// planOp returns op i of the workload: its kind and spec from the seeded
// order of its block, its job seed from the workload seed. It is a pure
// function of (seed, i).
func planOp(seed uint64, i int) op {
	n := len(opSlots)
	perm := rng.New(derive(seed, tagOpOrder, uint64(i/n))).Perm(n)
	s := opSlots[perm[i%n]]
	return op{
		Index: i,
		Kind:  s.kind,
		Req: server.JobRequest{
			Process: "sequential", Spec: s.spec, Trials: s.trials,
			Seed:    derive(seed, tagOpSeed, uint64(i)),
			Options: server.Options{Particles: s.particles},
		},
		Check: derive(seed, tagOpCheck, uint64(i))%checkEvery == 0,
	}
}

// coldOp is setup repetition rep's cold op of the given kind, on the
// first slot of that kind.
func coldOp(seed uint64, rep int, kind opKind) op {
	o := op{Index: -1, Kind: kind, Check: true}
	for _, s := range opSlots {
		if s.kind == kind {
			o.Req = server.JobRequest{Process: "sequential", Spec: s.spec, Trials: s.trials,
				Seed: derive(seed, tagCold, uint64(rep), uint64(kind)), Options: server.Options{Particles: s.particles}}
			break
		}
	}
	return o
}

// opResult is one op's outcome. err is a coordinator error or a failed
// output check; either fails the op.
type opResult struct {
	op      op
	span    int // the op's span on a traced pass
	latency time.Duration
	trials  int
	err     error
	// Kept for ops with Check set: the merged summary JSON (summary ops)
	// or the fold of the streamed results and the results themselves
	// (stream ops).
	summary []byte
	results []*dispersion.Result
}

// checkSummary is the summary op's output check.
func checkSummary(s *agg.Summary, req server.JobRequest) error {
	switch {
	case s.Trials != int64(req.Trials):
		return fmt.Errorf("summary covers %d trials, want %d", s.Trials, req.Trials)
	case s.Truncated != 0 || s.Unsettled != 0:
		return fmt.Errorf("summary has %d truncated trials, %d unsettled particles", s.Truncated, s.Unsettled)
	case s.Process != req.Process:
		return fmt.Errorf("summary process %q, want %q", s.Process, req.Process)
	}
	return nil
}

// do runs one op through the coordinator. With a tracer, the op is a root
// span and its requests' spans are children, tied by the context.
func do(ctx context.Context, c *shard.Coordinator, o op, tr *tracer) opResult {
	id := tr.begin("op."+o.Kind.String(), 0, strconv.Itoa(o.Index))
	defer tr.end(id)
	if tr != nil {
		ctx = context.WithValue(ctx, opKey{}, id)
	}
	r := opResult{op: o, span: id}
	t0 := time.Now()
	if o.Kind == opSummary {
		s, err := c.RunSummary(ctx, o.Req)
		r.latency = time.Since(t0)
		if err == nil {
			r.trials = int(s.Trials)
			err = checkSummary(s, o.Req)
		}
		if err == nil && o.Check {
			r.summary, err = json.Marshal(s)
		}
		r.err = err
		return r
	}
	var (
		sum  = agg.NewSummary()
		last time.Time
		bad  error
	)
	err := c.Run(ctx, o.Req, func(t dispersion.Trial) error {
		last = time.Now()
		r.trials++
		if err := checkTrial(t.Result); err != nil && bad == nil {
			bad = fmt.Errorf("trial %d: %w", t.Index, err)
		}
		if o.Check {
			sum.Add(t.Result)
			r.results = append(r.results, t.Result)
		}
		return nil
	})
	r.latency = last.Sub(t0)
	switch {
	case err != nil:
		r.err = err
	case bad != nil:
		r.err = bad
	case r.trials != o.Req.Trials:
		r.err = fmt.Errorf("stream delivered %d trials, want %d", r.trials, o.Req.Trials)
	case o.Check:
		r.summary, r.err = json.Marshal(sum)
	}
	return r
}

// recheck re-runs a checked op in-process with Engine.Run: its agg.Summary
// JSON must be byte-identical, and every streamed result must pass
// Result.Check on its graph.
func recheck(ctx context.Context, r opResult, gc graphCache) error {
	req := r.op.Req
	g, err := gc.get(req.Spec, req.Seed) // the build seed the server's engine uses
	if err != nil {
		return err
	}
	eng := dispersion.Engine{Seed: req.Seed, Experiment: req.Experiment, Workers: engineWorkers, ReuseResults: true}
	sum := agg.NewSummary()
	job := dispersion.Job{Process: req.Process, Graph: g, Origin: req.Origin, Trials: req.Trials,
		FirstTrial: req.FirstTrial, Options: req.Options.Build()}
	if err := eng.Run(ctx, job, func(t dispersion.Trial) error { sum.Add(t.Result); return nil }); err != nil {
		return err
	}
	want, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, r.summary) {
		return errors.New("summary differs from the in-process Engine.Run")
	}
	for i, res := range r.results {
		if err := res.Check(g); err != nil {
			return fmt.Errorf("streamed trial %d: %w", i, err)
		}
	}
	return nil
}

// serviceRun is the outcome of a run of consecutive ops.
type serviceRun struct {
	ops   []opResult
	wall  time.Duration
	tally tally
}

// nominalOpsPerSec is the op rate of the service workload on the machine
// the mix was calibrated on. A run of S seconds measures that many
// seconds' worth of whole blocks of the mix, so its work (and with it the
// servers' job tables, hence their memory) depends only on the seed and
// S, never on how fast the machine happens to be.
const nominalOpsPerSec = 100

func serviceOps(seconds float64) int {
	return max(1, int(seconds*nominalOpsPerSec)/len(opSlots)) * len(opSlots)
}

// runService runs ops first to first+count-1, then re-checks the seeded
// sample.
func runService(ctx context.Context, c *shard.Coordinator, seed uint64, first, count int, tr *tracer, gc graphCache) serviceRun {
	var out serviceRun
	t0 := time.Now()
	for i := first; i < first+count; i++ {
		out.ops = append(out.ops, do(ctx, c, planOp(seed, i), tr))
	}
	out.wall = time.Since(t0)
	out.tally = settleOps(ctx, out.ops, gc)
	return out
}

// add appends another run's ops.
func (s *serviceRun) add(o serviceRun) {
	s.ops = append(s.ops, o.ops...)
	s.wall += o.wall
	s.tally.add(o.tally)
}

// settleOps re-checks the sampled ops and tallies the ops, failing each
// op whose run or re-check failed.
func settleOps(ctx context.Context, ops []opResult, gc graphCache) tally {
	var t tally
	for i := range ops {
		r := &ops[i]
		if r.err == nil && r.op.Check {
			if err := recheck(ctx, *r, gc); err != nil {
				r.err = fmt.Errorf("re-check: %w", err)
			}
		}
		t.attempted++
		if r.err != nil {
			t.failed++
			logf("op %d (%s %s) failed: %v", r.op.Index, r.op.Kind, r.op.Req.Spec, r.err)
		}
		r.results = nil
	}
	return t
}

// endToEnd reports the service workload's end-to-end metrics over its
// successful ops.
func (s serviceRun) endToEnd(m metrics) {
	var sum, str []float64
	trials := 0
	for _, r := range s.ops {
		if r.err != nil {
			continue
		}
		trials += r.trials
		if r.op.Kind == opSummary {
			sum = append(sum, ms(r.latency))
		} else {
			str = append(str, ms(r.latency))
		}
	}
	m.set("trials_per_sec", float64(trials)/s.wall.Seconds(), "1/s")
	m.set("summary_p50_ms", percentile(sum, 0.50), "ms")
	m.set("summary_p95_ms", percentile(sum, 0.95), "ms")
	m.set("stream_p50_ms", percentile(str, 0.50), "ms")
	m.set("stream_p95_ms", percentile(str, 0.95), "ms")
	logf("%d ops (%d summary, %d stream), %d trials in %.2fs", len(s.ops), len(sum), len(str), trials, s.wall.Seconds())
}

// setupService starts the servers and runs one cold op of each kind. The
// returned duration is the set-up time: server start to both ops done.
func setupService(ctx context.Context, seed uint64, rep int, gc graphCache) (*service, time.Duration, tally, error) {
	t0 := time.Now()
	svc, err := startService()
	if err != nil {
		return nil, 0, tally{}, err
	}
	c := svc.coordinator(seed, nil)
	ops := []opResult{do(ctx, c, coldOp(seed, rep, opSummary), nil), do(ctx, c, coldOp(seed, rep, opStream), nil)}
	d := time.Since(t0)
	return svc, d, settleOps(ctx, ops, gc), nil
}
