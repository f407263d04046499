package main

import (
	"context"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"dispersion"
	"dispersion/agg"
)

func TestPlanIsPureFunctionOfSeed(t *testing.T) {
	const n = 4000
	seen := map[uint64]bool{}
	for i := range n {
		a, b := planOp(7, i), planOp(7, i)
		if a.Index != b.Index || a.Kind != b.Kind || a.Req.Spec != b.Req.Spec || a.Req.Seed != b.Req.Seed || a.Check != b.Check {
			t.Fatalf("op %d differs between two plans of seed 7: %+v vs %+v", i, a, b)
		}
		if seen[a.Req.Seed] {
			t.Fatalf("op %d repeats job seed %d", i, a.Req.Seed)
		}
		seen[a.Req.Seed] = true
		if planOp(8, i).Req.Seed == a.Req.Seed {
			t.Fatalf("op %d has the same job seed under seeds 7 and 8", i)
		}
	}
	// Every block of the plan holds the mix exactly: per block, three
	// complete:256 and one wcomplete:512,1 summary op, and four stream ops.
	var kinds []opKind
	for i := range n {
		kinds = append(kinds, planOp(7, i).Kind)
	}
	for b := 0; b < n; b += len(opSlots) {
		mix := map[string]int{}
		for i := b; i < b+len(opSlots); i++ {
			o := planOp(7, i)
			mix[o.Kind.String()+" "+o.Req.Spec]++
		}
		if mix["summary complete:256"] != 3 || mix["summary wcomplete:512,1"] != 1 || mix["stream complete:256"] != 4 {
			t.Fatalf("block at op %d has mix %v", b, mix)
		}
	}
	var other []opKind
	for i := range n {
		other = append(other, planOp(8, i).Kind)
	}
	if slices.Equal(kinds, other) {
		t.Fatal("seeds 7 and 8 give the same op order")
	}
	identity := make([]int, len(configs))
	for i := range identity {
		identity[i] = i
	}
	for r := range 50 {
		o := roundOrder(7, r, len(configs))
		if !slices.Equal(o, roundOrder(7, r, len(configs))) {
			t.Fatalf("round %d order differs between calls", r)
		}
		if !slices.Equal(slices.Sorted(slices.Values(o)), identity) {
			t.Fatalf("round %d order %v is not a permutation", r, o)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	if got := percentile(xs, 0.5); got != 100.5 {
		t.Errorf("p50 of 1..200 = %v, want 100.5", got)
	}
	p95 := percentile(xs, 0.95)
	if math.Abs(p95-190.05) > 1e-9 {
		t.Errorf("p95 of 1..200 = %v, want 190.05", p95)
	}
	beyond := 0
	for _, x := range xs {
		if x > p95 {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond p95 of 200, want 10", beyond)
	}
	if got := percentile([]float64{3}, 0.95); got != 3 {
		t.Errorf("p95 of one sample = %v, want 3", got)
	}
}

func TestLedgerArithmetic(t *testing.T) {
	r := ledgerRow{Config: "c", Workers: 2, EngineNS: 600, CoreNS: 1000, Steps: 50, StepNS: 10}
	if got := r.walkNS(); got != 500 {
		t.Errorf("walk = %v, want 500", got)
	}
	if got := r.settleNS(); got != 500 {
		t.Errorf("settle = %v, want 500", got)
	}
	if got := r.overheadNS(); got != 200 {
		t.Errorf("overhead = %v, want 200", got)
	}
	// Residual: (settle + overhead) / (W x engine) = 700 / 1200.
	if got := r.residualShare(); math.Abs(got-700.0/1200) > 1e-12 {
		t.Errorf("residual share = %v, want %v", got, 700.0/1200)
	}
	// The parts add back up to the engine's worker time.
	if sum := r.walkNS() + r.settleNS() + r.overheadNS(); sum != float64(r.Workers)*r.EngineNS {
		t.Errorf("walk + settle + overhead = %v, want %v", sum, float64(r.Workers)*r.EngineNS)
	}
}

func TestFailedCheckFailsOperation(t *testing.T) {
	// Engine workloads: a trial is an operation.
	f := &blockFold{sum: agg.NewSummary(), want: 3}
	good := &dispersion.Result{Process: "sequential", SettledAt: []int32{0, 1}, Steps: []int64{0, 1}, TotalSteps: 1}
	truncated := &dispersion.Result{Process: "sequential", SettledAt: []int32{0, -1}, Steps: []int64{0, 5}, TotalSteps: 5, Truncated: true}
	unsettled := &dispersion.Result{Process: "sequential", SettledAt: []int32{0, -1}, Steps: []int64{0, 5}, TotalSteps: 5}
	for i, res := range []*dispersion.Result{good, truncated, unsettled} {
		if err := f.add(dispersion.Trial{Index: i, Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	if f.tally != (tally{attempted: 3, failed: 2}) {
		t.Errorf("engine tally %+v, want 3 attempted, 2 failed", f.tally)
	}

	// Theorem 4.1: a sample whose mean misses (n-1)H(n-1) fails.
	if err := theoremCheck([]float64{3482, 3483, 3481, 3482.5}, 512); err != nil {
		t.Errorf("mean on the closed form failed: %v", err)
	}
	if err := theoremCheck([]float64{3000, 3001, 2999, 3000.5}, 512); err == nil {
		t.Error("mean far from the closed form passed")
	}

	// Service: an op is an operation; a coordinator error, a failed output
	// check and a failed in-process re-check each fail it.
	o := planOp(1, 0)
	o.Req.Spec, o.Req.Trials, o.Req.Options.Particles = "complete:16", 4, 0
	o.Check = true
	want := agg.NewSummary()
	err := dispersion.Engine{Seed: o.Req.Seed}.Run(context.Background(),
		dispersion.Job{Process: o.Req.Process, Spec: o.Req.Spec, Trials: o.Req.Trials},
		func(tr dispersion.Trial) error { want.Add(tr.Result); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSummary(want, o.Req); err != nil {
		t.Fatalf("matching summary failed its check: %v", err)
	}
	short := o.Req
	short.Trials++
	if checkSummary(want, short) == nil {
		t.Error("summary with too few trials passed its check")
	}
	match, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	other := agg.NewSummary()
	other.Add(good)
	mismatch, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	ops := []opResult{
		{op: o, summary: match},
		{op: o, summary: mismatch},
		{op: o, err: errTruncated},
	}
	if got := settleOps(context.Background(), ops, graphCache{}); got != (tally{attempted: 3, failed: 2}) {
		t.Errorf("service tally %+v, want 3 attempted, 2 failed", got)
	}
	if ops[0].err != nil || ops[1].err == nil {
		t.Errorf("re-check verdicts: matching %v, mismatching %v", ops[0].err, ops[1].err)
	}
}

func TestCheckDeclared(t *testing.T) {
	decl := map[string]string{"a": "ms", "b": "s"}
	m := metrics{}
	m.set("a", 1, "ms")
	if checkDeclared(m, decl) == nil {
		t.Error("missing metric passed")
	}
	m.set("b", 1, "ms")
	if checkDeclared(m, decl) == nil {
		t.Error("wrong unit passed")
	}
	m.set("b", 1, "s")
	if err := checkDeclared(m, decl); err != nil {
		t.Errorf("declared metrics failed: %v", err)
	}
	m.set("c", 1, "s")
	if checkDeclared(m, decl) == nil {
		t.Error("undeclared metric passed")
	}
}

func TestTracedServiceOps(t *testing.T) {
	svc, err := startService()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	ctx := context.Background()
	tr := newTracer()
	run := runService(ctx, svc.coordinator(1, tr), 1, 0, len(opSlots), tr, graphCache{})
	if run.tally != (tally{attempted: len(opSlots)}) {
		t.Fatalf("service tally %+v, want %d ops and no failure", run.tally, len(opSlots))
	}
	jobs, err := svc.jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*len(opSlots) {
		t.Fatalf("servers hold %d jobs, want %d", len(jobs), 2*len(opSlots))
	}
	spans := tr.snapshot()
	children := map[int]map[string]int{}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Parent != 0 {
			if children[s.Parent] == nil {
				children[s.Parent] = map[string]int{}
			}
			children[s.Parent][s.Name]++
		}
	}
	for _, s := range spans {
		switch s.Name {
		case "op.summary":
			if c := children[s.ID]; c["http.submit"] != 2 || c["http.summary"] != 2 {
				t.Errorf("summary op span %d has children %v", s.ID, c)
			}
		case "op.stream":
			if c := children[s.ID]; c["http.submit"] != 2 || c["http.results"] != 2 {
				t.Errorf("stream op span %d has children %v", s.ID, c)
			}
		case "http.submit":
			if _, ok := jobs[jobKey(s.Attr)]; !ok {
				t.Errorf("submit span names job %q, which no server lists", s.Attr)
			}
		}
	}
	m := metrics{}
	classes := serviceLayers(m, tr, spans, run.ops, jobs)
	ops := 0
	for _, c := range classes {
		ops += c.Ops
		if c.RunMS <= 0 || c.RunMS > c.LatencyMS {
			t.Errorf("op class %+v: want 0 < run p50 <= latency p50", c)
		}
	}
	if len(classes) != 3 || ops != len(opSlots) {
		t.Errorf("op classes %+v, want 3 classes over %d ops", classes, len(opSlots))
	}
	if m["shard.resubmits"].Value != 0 || m["server.http_non2xx"].Value != 0 {
		t.Errorf("resubmits %v, non-2xx %v, want none", m["shard.resubmits"], m["server.http_non2xx"])
	}
	for _, name := range []string{"server.run_ms_p50", "server.submit_ms_p50", "shard.summary_overhead_ms_p50", "shard.stream_overhead_ms_p50"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name].Value)
		}
	}
}

func TestGraphCache(t *testing.T) {
	gc := graphCache{}
	a, err := gc.get("complete:8", 1)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := gc.get("complete:8", 2); b != a {
		t.Error("a deterministic family was built again for another seed")
	}
	r1, err := gc.get("regular:16,4", 1)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := gc.get("regular:16,4", 1); again != r1 {
		t.Error("a random family was built again for the same seed")
	}
	if r2, _ := gc.get("regular:16,4", 2); r2 == r1 {
		t.Error("a random family was not rebuilt for another seed")
	}
}

func TestWorkingSetFromBuiltGraph(t *testing.T) {
	gc := graphCache{}
	for _, tc := range []struct {
		spec   string
		c      config
		occ    int64
		tables int64
	}{
		{"complete:512", config{process: "sequential"}, 512, 0},
		{"hypercube:9", config{process: "sequential"}, 512, 4*513 + 512*9*4},
		{"wcomplete:16,1", config{process: "sequential", batch: 64}, 16 * 64, 4*17 + 16*15*(4+8+8+4)},
		{"torus:1024x1024", config{process: "sequential", particles: 4096}, 8 * 16384, 0},
		{"torus:8x8x8", config{process: "capacity"}, 512 * 5, 0},
	} {
		g, err := gc.get(tc.spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		ws := computeWorkingSet(tc.c, g, 1<<21)
		if ws.OccupancyBytes != tc.occ || ws.TableBytes != tc.tables {
			t.Errorf("%s: occupancy %d, tables %d; want %d, %d", tc.spec, ws.OccupancyBytes, ws.TableBytes, tc.occ, tc.tables)
		}
		if ws.ExceedsL2 != (ws.TotalBytes > 1<<21) {
			t.Errorf("%s: exceeds_l2 %v with %d bytes", tc.spec, ws.ExceedsL2, ws.TotalBytes)
		}
	}
}

func TestConfigTable(t *testing.T) {
	names := map[string]bool{}
	for _, c := range configs {
		if names[c.name] {
			t.Errorf("configuration %s is listed twice", c.name)
		}
		names[c.name] = true
		graphByKey(c.graph) // panics on an unknown key
		if _, ok := intoFuncs[c.process]; !ok {
			t.Errorf("%s: no core entry point for process %s", c.name, c.process)
		}
		// The core replay runs a batched block as whole lanes.
		if c.batch > 0 && c.trials%c.batch != 0 {
			t.Errorf("%s: %d trials is not a whole number of %d-trial lanes", c.name, c.trials, c.batch)
		}
	}
	if len(configsOf(wlEngineCached)) != 11 || len(configsOf(wlEngineLarge)) != 4 {
		t.Errorf("%d cache-resident and %d large configurations, want 11 and 4",
			len(configsOf(wlEngineCached)), len(configsOf(wlEngineLarge)))
	}
}
