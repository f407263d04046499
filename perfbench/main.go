// Command perfbench is the repository's benchmark. It measures the three
// ways users pay for walk steps: trials through dispersion.Engine on
// cache-resident and on beyond-L2 configurations, and jobs through two
// loopback dispersion servers driven by a two-shard coordinator.
//
// Usage (from the repository root, after building; see run.sh):
//
//	perfbench --workload engine-cached|engine-large|service --seed N --seconds S --trace 0|1
//
// With --trace 0 it runs the named workload untraced and reports the
// end-to-end metrics. With --trace 1 it runs every workload untraced and
// then traced over the same ops, times each module's layer from outside,
// and reports the per-layer metrics and the ledger. The last line of
// standard output is the JSON result; the run record, the ledger table and
// the spans are written to --out.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dispersion/internal/walk"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// A run sets its workload up at least minSetups times and until
// setupTime has passed, at most maxSetups times; setup_s is the median.
const (
	minSetups = 5
	maxSetups = 25
	setupTime = 2 * time.Second
)

// moreSetups reports whether another set-up is due after the given ones.
func moreSetups(setups []float64) bool {
	var spent float64
	for _, s := range setups {
		spent += s
	}
	return len(setups) < minSetups || len(setups) < maxSetups && spent < setupTime.Seconds()
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; every job seed and op order derives from it")
	seconds := fs.Float64("seconds", 10, "nominal measured seconds: the run does this much work as timed on the calibration machine")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	out := fs.String("out", filepath.Join(".bench_build", "runs"), "directory for the run record and spans")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if !slices.Contains(workloads, *workload) || *seconds <= 0 {
		logf("want --workload one of %s and --seconds > 0", strings.Join(workloads, ", "))
		os.Exit(2)
	}
	declared, err := declaredMetrics(benchmarkFile, *trace != 0)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	rec := newRunRecord(*workload, *seed, *seconds, *trace != 0)
	ctx := context.Background()
	var (
		res result
		rep *report
	)
	if *trace == 0 {
		res, err = untraced(ctx, *workload, *seed, *seconds)
	} else {
		res, rep, err = traced(ctx, *seed, *seconds)
	}
	if err == nil {
		err = checkDeclared(res.Metrics, declared)
	}
	if err == nil {
		// The working sets are computed after the workload, so their graph
		// builds touch no metric.
		rec.WorkingSet, err = workingSets(graphCache{}, *seed, rec.L2Bytes)
	}
	if b, err := json.Marshal(rec); err == nil {
		logf("run record: %s", b)
	}
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if err := writeRun(*out, rec, res, rep); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// untraced runs one workload and reports its end-to-end metrics.
func untraced(ctx context.Context, workload string, seed uint64, seconds float64) (result, error) {
	m := metrics{}
	var t tally
	var setups []float64
	if workload == wlService {
		gc := graphCache{}
		var svc *service
		for rep := 0; moreSetups(setups); rep++ {
			s, d, st, err := setupService(ctx, seed, rep, gc)
			if svc != nil {
				svc.close()
			}
			if err != nil {
				return result{}, err
			}
			t.add(st)
			setups = append(setups, d.Seconds())
			svc = s
		}
		defer svc.close()
		run := runService(ctx, svc.coordinator(seed, nil), seed, 0, serviceOps(seconds), nil, gc)
		t.add(run.tally)
		run.endToEnd(m)
	} else {
		var cfgs []*engineCfg
		for moreSetups(setups) {
			// Each set-up starts from a collected heap and builds every
			// graph afresh, so one set-up's garbage neither slows the next
			// nor raises the peak RSS.
			cfgs = nil
			runtime.GC()
			t0 := time.Now()
			c, st, err := setupEngine(ctx, workload, seed, graphCache{})
			if err != nil {
				return result{}, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			t.add(st)
			cfgs = c
		}
		runtime.GC()
		run, err := runEngine(ctx, cfgs, seed, engineRounds(workload, seconds))
		if err != nil {
			return result{}, err
		}
		t.add(run.tally)
		run.endToEnd(m)
	}
	m.set("setup_s", percentile(setups, 0.5), "s")
	m.set("peak_rss_mib", peakRSSMiB(), "MiB")
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// report is what a traced run writes besides its result.
type report struct {
	Ledger  []ledgerRow `json:"ledger"`
	Classes []opClass   `json:"service_op_classes"`
	Spans   []spanStat  `json:"spans"`
	spans   []span
}

// traced runs every workload untraced and traced (half of seconds each),
// alternating the two block by block and starting each pair with the
// other side than the last, so drift in machine speed hits both sides of
// trace.overhead_frac alike. Each configuration's core replay follows its
// first engine blocks. The layer probes run last. It reports the
// per-layer metrics and the ledger.
func traced(ctx context.Context, seed uint64, seconds float64) (result, *report, error) {
	tr := newTracer()
	m := metrics{}
	var t tally
	gc := graphCache{}
	times := map[string]map[string]configTime{} // workload, configuration
	cores := map[string]coreStat{}
	for _, w := range []string{wlEngineCached, wlEngineLarge} {
		cfgs, st, err := setupEngine(ctx, w, seed, gc)
		if err != nil {
			return result{}, nil, err
		}
		t.add(st)
		runtime.GC()
		var plain, withSpans engineRun
		var mallocs uint64
		for r := range engineRounds(w, seconds/2) {
			for j, ci := range roundOrder(seed, r, len(cfgs)) {
				for pass := range 2 {
					if (j+pass)%2 == 0 {
						var before, after runtime.MemStats
						runtime.ReadMemStats(&before)
						err = plain.add(ctx, cfgs, seed, r, ci, nil)
						runtime.ReadMemStats(&after)
						mallocs += after.Mallocs - before.Mallocs
					} else {
						err = withSpans.add(ctx, cfgs, seed, r, ci, tr)
					}
					if err != nil {
						return result{}, nil, err
					}
				}
				if r == 0 {
					c := cfgs[ci]
					if cores[c.name], err = coreConfig(m, c, walk.NewRunner(blockSeed(seed, 0, ci), 0), tr); err != nil {
						return result{}, nil, err
					}
				}
			}
		}
		plain.checkTheorem(cfgs)
		withSpans.checkTheorem(cfgs)
		t.add(plain.tally)
		t.add(withSpans.tally)
		m.set("engine.allocs_per_trial."+w, float64(mallocs)/float64(plain.trials()), "count")
		m.set("trace.overhead_frac."+w, withSpans.runWall().Seconds()/plain.runWall().Seconds()-1, "ratio")
		times[w] = plain.perConfig(cfgs)
		for name, ct := range times[w] {
			m.set("engine.ns_per_trial."+name, ct.nsPerTrial(), "ns")
		}
	}

	svc, _, st, err := setupService(ctx, seed, 0, gc)
	if err != nil {
		return result{}, nil, err
	}
	t.add(st)
	plainC, tracedC := svc.coordinator(seed, nil), svc.coordinator(seed, tr)
	var plain, withSpans serviceRun
	n := len(opSlots)
	for b := range serviceOps(seconds/2) / n {
		// Each block of the mix has ops of its own, so the traced blocks
		// submit no job seed the untraced ones did.
		for pass := range 2 {
			first := (2*b + pass) * n
			if (b+pass)%2 == 0 {
				plain.add(runService(ctx, plainC, seed, first, n, nil, gc))
			} else {
				withSpans.add(runService(ctx, tracedC, seed, first, n, tr, gc))
			}
		}
	}
	t.add(plain.tally)
	t.add(withSpans.tally)
	m.set("trace.overhead_frac.service", withSpans.wall.Seconds()/plain.wall.Seconds()-1, "ratio")
	jobs, err := svc.jobs(ctx)
	svc.close()
	if err != nil {
		return result{}, nil, err
	}
	rep := &report{Classes: serviceLayers(m, tr, tr.snapshot(), withSpans.ops, jobs)}
	writeOpClasses(os.Stderr, rep.Classes)

	rngLayer(m, tr)
	stepNS, err := kernelLayer(m, gc, seed, tr)
	if err != nil {
		return result{}, nil, err
	}
	laneNS, err := laneLayer(m, gc, seed, tr)
	if err != nil {
		return result{}, nil, err
	}
	if err := graphspecLayer(m, tr); err != nil {
		return result{}, nil, err
	}
	if err := walkLayer(ctx, m, tr); err != nil {
		return result{}, nil, err
	}
	if err := aggLayer(ctx, m, tr); err != nil {
		return result{}, nil, err
	}
	if err := sinkLayer(ctx, m, tr); err != nil {
		return result{}, nil, err
	}

	for w, byConfig := range times {
		var coreNS, wallNS float64
		for name, ct := range byConfig {
			coreNS += float64(ct.trials) * cores[name].nsPerTrial
			wallNS += float64(ct.wall.Nanoseconds())
		}
		m.set("engine.scaling_eff."+w, coreNS/(engineWorkers*wallNS), "ratio")
	}
	for _, c := range configs {
		ns := stepNS[c.graph]
		if c.batch > 0 {
			ns = laneNS[c.graph]
		}
		row := ledgerRow{Config: c.name, Workers: engineWorkers, EngineNS: times[c.workload][c.name].nsPerTrial(),
			CoreNS: cores[c.name].nsPerTrial, Steps: cores[c.name].stepsPerTrial, StepNS: ns}
		m.set("ledger.settle_ns_per_trial."+c.name, row.settleNS(), "ns")
		m.set("ledger.overhead_ns_per_trial."+c.name, row.overheadNS(), "ns")
		rep.Ledger = append(rep.Ledger, row)
	}
	writeLedger(os.Stderr, rep.Ledger)
	rep.spans = tr.snapshot()
	rep.Spans = selfTimes(rep.spans)
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, rep, nil
}

// benchmarkFile declares the workloads and metrics, relative to the
// repository root the benchmark runs from.
const benchmarkFile = "BENCHMARK.json"

// declaredMetrics reads the metric names and units benchmarkFile declares
// for a run: the end-to-end metrics untraced, the per-layer ones traced.
func declaredMetrics(path string, traced bool) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	out := map[string]string{}
	for _, d := range list {
		out[d.Name] = d.Unit
	}
	return out, nil
}

// checkDeclared requires the run to report exactly the declared metrics,
// each in its declared unit.
func checkDeclared(m metrics, declared map[string]string) error {
	for name, unit := range declared {
		got, ok := m[name]
		switch {
		case !ok:
			return fmt.Errorf("declared metric %s was not measured", name)
		case got.Unit != unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", name, got.Unit, unit)
		}
	}
	for name := range m {
		if _, ok := declared[name]; !ok {
			return fmt.Errorf("metric %s is not declared in %s", name, benchmarkFile)
		}
	}
	return nil
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// runRecord describes the machine and inputs of one run.
type runRecord struct {
	Workload   string       `json:"workload"`
	Seed       uint64       `json:"seed"`
	Seconds    float64      `json:"seconds"`
	Trace      bool         `json:"trace"`
	NumCPU     int          `json:"nproc"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	GoVersion  string       `json:"go_version"`
	CPUModel   string       `json:"cpu_model"`
	L2Bytes    int64        `json:"l2_bytes"`
	L3Bytes    int64        `json:"l3_bytes"`
	WorkingSet []workingSet `json:"working_set"`
}

func newRunRecord(workload string, seed uint64, seconds float64, trace bool) runRecord {
	r := runRecord{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(),
	}
	r.L2Bytes, r.L3Bytes = cacheSize(2), cacheSize(3)
	return r
}

// cpuModel reads the model name of the first CPU from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reads CPU 0's unified or data cache size at the given level
// from sysfs; 0 when unknown.
func cacheSize(level int) int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, _ := os.ReadFile(filepath.Join(d, "level"))
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		sz, _ := os.ReadFile(filepath.Join(d, "size"))
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v * mult
		}
	}
	return 0
}

// writeRun writes the run record, the result and, for a traced run, the
// ledger, the span totals and every span.
func writeRun(dir string, rec runRecord, res result, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t", rec.Workload, rec.Seed, rec.Trace))
	b, err := json.MarshalIndent(struct {
		Record runRecord `json:"record"`
		Result result    `json:"result"`
		*report
	}{rec, res, rep}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if rep == nil {
		return nil
	}
	f, err := os.Create(base + "-spans.tsv")
	if err != nil {
		return err
	}
	if err := writeSpans(f, rep.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
