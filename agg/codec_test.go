package agg

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"dispersion"
	"dispersion/internal/wire"
)

// plainJSON is the reference encoding: the wire structs nested as plain
// values, so encoding/json reaches no MarshalJSON and renders a summary
// by reflection alone. MarshalJSON must reproduce its bytes.
func plainJSON(s *Summary) ([]byte, error) {
	type column struct {
		Moments   *momentsJSON   `json:"moments"`
		Quantiles *quantilesJSON `json:"quantiles"`
		Histogram *histogramJSON `json:"histogram,omitempty"`
	}
	plain := func(c *Column) *column {
		m, q := c.Moments.wire(), c.Quantiles.wire()
		out := &column{Moments: &m, Quantiles: &q}
		if c.Histogram != nil {
			h := c.Histogram.wire()
			out.Histogram = &h
		}
		return out
	}
	return json.Marshal(struct {
		Process    string  `json:"process"`
		Continuous bool    `json:"continuous,omitempty"`
		Capacity   int     `json:"capacity,omitempty"`
		Trials     int64   `json:"trials"`
		Truncated  int64   `json:"truncated,omitempty"`
		Unsettled  int64   `json:"unsettled,omitempty"`
		Makespan   *column `json:"makespan"`
		TotalSteps *column `json:"total_steps"`
	}{
		s.Process, s.Continuous, s.Capacity, s.Trials, s.Truncated, s.Unsettled,
		plain(s.Makespan), plain(s.TotalSteps),
	})
}

// engineSummary folds job's trials into a fresh summary.
func engineSummary(t testing.TB, job dispersion.Job) *Summary {
	t.Helper()
	s := NewSummary()
	eng := dispersion.Engine{Seed: 11, Experiment: 3}
	err := eng.Run(context.Background(), job, func(tr dispersion.Trial) error {
		s.Add(tr.Result)
		return nil
	})
	if err != nil {
		t.Fatalf("%s on %s: %v", job.Process, job.Spec, err)
	}
	return s
}

// timeResult is a continuous-time Result whose makespan is x.
func timeResult(x float64) *dispersion.Result {
	return &dispersion.Result{Process: "ct-uniform", Continuous: true, Time: x, TotalSteps: 7, SettledAt: []int32{0}, Capacity: 1}
}

// fold returns a summary of results.
func fold(results ...*dispersion.Result) *Summary {
	s := NewSummary()
	for _, r := range results {
		s.Add(r)
	}
	return s
}

type namedSummary struct {
	name string
	s    *Summary
}

// codecSummaries covers the layouts the codec writes: every omitted and
// present optional key, both float formats, collapsed histograms, zeros,
// fractional exact sums and processes that need escaping.
func codecSummaries(t testing.TB) []namedSummary {
	t.Helper()
	seq := engineSummary(t, dispersion.Job{Process: "sequential", Spec: "complete:64", Trials: 24})
	par := engineSummary(t, dispersion.Job{Process: "parallel", Spec: "cycle:16", Trials: 24})
	capacity := engineSummary(t, dispersion.Job{Process: "capacity", Spec: "complete:32", Trials: 16,
		Options: []dispersion.Option{dispersion.WithCapacity(2)}})
	if capacity.Capacity != 2 {
		t.Fatalf("capacity summary has capacity %d, want 2", capacity.Capacity)
	}
	ctu := engineSummary(t, dispersion.Job{Process: "ct-uniform", Spec: "complete:32", Trials: 16})
	truncated := engineSummary(t, dispersion.Job{Process: "sequential", Spec: "path:40", Trials: 8,
		Options: []dispersion.Option{dispersion.WithMaxSteps(30)}})
	if truncated.Truncated == 0 || truncated.Unsettled == 0 {
		t.Fatalf("truncated summary has %d truncated trials, %d unsettled particles", truncated.Truncated, truncated.Unsettled)
	}
	mixed := NewSummary()
	for _, s := range []*Summary{seq, par} {
		if err := mixed.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	escaped := fold(fakeResult(`a<b&"c"`, 4, 9, false))
	nonASCII := fold(fakeResult("séquentiel ", 4, 9, false))
	return []namedSummary{
		{"empty", NewSummary()},
		{"one trial", fold(fakeResult("sequential", 12, 40, false))},
		{"sequential", seq},
		{"parallel", par},
		{"capacity 2", capacity},
		{"ct-uniform", ctu},
		{"mixed", mixed},
		{"truncated", truncated},
		{"tiny and huge times", fold(timeResult(3e-7), timeResult(9.5e-7), timeResult(1e21), timeResult(5e22))},
		{"collapsed histogram", fold(fakeResult("sequential", 5000, 7, false), fakeResult("sequential", 3, 1e6, false))},
		{"zeros", fold(fakeResult("sequential", 0, 0, false), fakeResult("sequential", 0, 0, false), fakeResult("sequential", 9, 4, false))},
		{"negative exponents", fold(timeResult(0.1), timeResult(0.375), timeResult(2.5))},
		{"escaped process", escaped},
		{"non-ASCII process", nonASCII},
	}
}

// The writer gives the reference encoding's bytes, and takes
// encoding/json's path only for a process that needs escaping; the
// reader parses those bytes directly whenever the writer wrote them, and
// agrees with encoding/json's path on the value.
func TestSummaryCodecMatchesEncodingJSON(t *testing.T) {
	for _, c := range codecSummaries(t) {
		want, err := plainJSON(c.s)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		got, err := json.Marshal(c.s)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: json.Marshal = %v\n got %s\nwant %s", c.name, err, got, want)
		}
		plain := wire.Plain(c.s.Process)
		if _, ok := c.s.appendJSON(nil); ok != plain {
			t.Errorf("%s: direct writer ok = %v for process %q", c.name, ok, c.s.Process)
		}
		if _, ok, err := parseCanonical(got); ok != plain || err != nil {
			t.Errorf("%s: direct reader ok = %v, err %v for process %q", c.name, ok, err, c.s.Process)
		}
		var direct, ref Summary
		if err := direct.UnmarshalJSON(got); err != nil {
			t.Fatalf("%s: UnmarshalJSON: %v", c.name, err)
		}
		if err := ref.decodeJSON(got); err != nil {
			t.Fatalf("%s: encoding/json path: %v", c.name, err)
		}
		if !reflect.DeepEqual(direct, ref) {
			t.Errorf("%s: the decoders disagree\ndirect %+v\n   ref %+v", c.name, direct, ref)
		}
		if again, err := direct.MarshalJSON(); err != nil || !bytes.Equal(again, got) {
			t.Errorf("%s: round trip gave %s (%v)", c.name, again, err)
		}
	}
}

// A value JSON cannot hold takes encoding/json's path, so json.Marshal
// fails with encoding/json's error, wrapped by each sketch on the way.
func TestSummaryMarshalNonFiniteError(t *testing.T) {
	const chain = "json: error calling MarshalJSON for type *agg.Summary: json: error calling MarshalJSON for type *agg.Column: "
	for name, c := range map[string]struct {
		mutate func(*Summary)
		want   string
	}{
		"quantile": {
			func(s *Summary) { s.Makespan.Quantiles.keys[0] = math.MaxInt32 },
			chain + "json: error calling MarshalJSON for type *agg.Quantiles: json: unsupported value: +Inf",
		},
		"mean": {
			func(s *Summary) { s.TotalSteps.Moments.sum.acc.Lsh(&s.TotalSteps.Moments.sum.acc, 2000) },
			chain + "json: error calling MarshalJSON for type *agg.Moments: json: unsupported value: +Inf",
		},
	} {
		s := fold(fakeResult("sequential", 3, 5, false))
		c.mutate(s)
		if b, err := json.Marshal(s); err == nil || err.Error() != c.want {
			t.Errorf("%s: json.Marshal = %s, %v\nwant error %s", name, b, err, c.want)
		}
		if _, err := plainJSON(s); err == nil {
			t.Errorf("%s: the reference encoding accepted the summary", name)
		}
	}
}

// unreachable holds byte swaps on oneTrial's JSON that no marshal
// writes: a min above the max, an exact sum whose mean leaves the float64
// range, and a bucket key no finite value maps to at alpha 0.01.
var unreachable = map[string][2]string{
	"min above max":      {`"min":3,"max":3`, `"min":900,"max":2`},
	"sum beyond float64": {`"sum":"3*2^0"`, `"sum":"1*2^1080"`},
	"key beyond float64": {`"keys":[55]`, `"keys":[2147483647]`},
}

// oneTrial is the JSON of a one-trial summary, the base of unreachable.
func oneTrial(tb testing.TB) []byte {
	b, err := json.Marshal(fold(fakeResult("sequential", 3, 5, false)))
	if err != nil {
		tb.Fatal(err)
	}
	for name, swap := range unreachable {
		if !bytes.Contains(b, []byte(swap[0])) {
			tb.Fatalf("%s: one-trial summary lacks %s", name, swap[0])
		}
	}
	return b
}

// Both decoders refuse what no Add or Merge produces, with one error: a
// histogram width off width0's doublings, a column whose sketches do not
// each hold one value per trial, a total-steps histogram, columns of
// different quantile alphas, and the unreachable inputs.
func TestSummaryDecodeRejectsUnreachableSketches(t *testing.T) {
	reject := func(name string, b []byte) {
		var direct, ref Summary
		derr, rerr := direct.UnmarshalJSON(b), ref.decodeJSON(b)
		if derr == nil || rerr == nil || derr.Error() != rerr.Error() {
			t.Errorf("%s: UnmarshalJSON error %v, encoding/json path error %v\n%s", name, derr, rerr, b)
		}
	}
	one := oneTrial(t)
	for name, swap := range unreachable {
		reject(name, bytes.Replace(one, []byte(swap[0]), []byte(swap[1]), 1))
	}
	for name, mutate := range map[string]func(*Summary){
		"width between doublings": func(s *Summary) { s.Makespan.Histogram.width = 3 },
		"width below width0":      func(s *Summary) { s.Makespan.Histogram.width = 0.5 },
		"trials":                  func(s *Summary) { s.Trials++ },
		"makespan moments":        func(s *Summary) { s.Makespan.Moments.Add(5) },
		"makespan quantiles":      func(s *Summary) { s.Makespan.Quantiles.Add(5) },
		"makespan histogram":      func(s *Summary) { s.Makespan.Histogram.Add(5) },
		"total-steps moments":     func(s *Summary) { s.TotalSteps.Moments.Add(5) },
		"total-steps quantiles":   func(s *Summary) { s.TotalSteps.Quantiles.Add(5) },
		"total-steps histogram":   func(s *Summary) { s.TotalSteps.Histogram = s.Makespan.Histogram },
		"total-steps alpha":       func(s *Summary) { s.TotalSteps.Quantiles.alpha = 0.02 },
	} {
		s := fold(fakeResult("sequential", 3, 5, false), fakeResult("sequential", 100, 9, false))
		mutate(s)
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reject(name, b)
	}
	// Merge would collapse such a histogram to width 2 and add its counts.
	var h Histogram
	if err := json.Unmarshal([]byte(`{"buckets":4,"width0":1,"width":1.5,"n":2,"counts":[1,1,0,0]}`), &h); err == nil {
		t.Error("histogram of width 1.5 on width0 1 accepted")
	}
}

// benchSummary is one shard's sketch in a service summary op: 32 trials
// of sequential on complete:256.
func benchSummary(b *testing.B) *Summary {
	return engineSummary(b, dispersion.Job{Process: "sequential", Spec: "complete:256", Trials: 32})
}

func BenchmarkSummaryMarshal(b *testing.B) {
	s := benchSummary(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummaryMarshalEncodingJSON(b *testing.B) {
	s := benchSummary(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := plainJSON(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummaryUnmarshal(b *testing.B) {
	data, err := benchSummary(b).MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		var s Summary
		if err := s.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummaryUnmarshalEncodingJSON(b *testing.B) {
	data, err := benchSummary(b).MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		var s Summary
		if err := s.decodeJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}
