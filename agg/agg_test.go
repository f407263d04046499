package agg

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dispersion"
	"dispersion/internal/stats"
)

func TestExactSumOrderIndependent(t *testing.T) {
	// A sum that defeats naive float64 accumulation: 1e16 + 1 - 1e16
	// loses the 1 if evaluated left to right in float64.
	vals := []float64{1e16, 1, -1e16, 0.1, -0.1, math.SmallestNonzeroFloat64, 1e-300, 2.5e-301}
	rng := rand.New(rand.NewSource(7))
	var want string
	for perm := 0; perm < 20; perm++ {
		order := rng.Perm(len(vals))
		var s exactSum
		for _, i := range order {
			s.add(vals[i])
		}
		if perm == 0 {
			want = s.text()
			continue
		}
		if got := s.text(); got != want {
			t.Fatalf("permutation %d: accumulator %s, want %s", perm, got, want)
		}
	}

	var s exactSum
	s.add(1e16)
	s.add(1)
	s.add(-1e16)
	if got := s.value(); got != 1 {
		t.Fatalf("1e16 + 1 - 1e16 = %v, want exactly 1", got)
	}
}

func TestExactSumMergeEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
	}
	var whole exactSum
	for _, v := range vals {
		whole.add(v)
	}
	var a, b, c exactSum
	for i, v := range vals {
		switch i % 3 {
		case 0:
			a.add(v)
		case 1:
			b.add(v)
		default:
			c.add(v)
		}
	}
	// Merge in a scrambled order.
	var merged exactSum
	merged.merge(&c)
	merged.merge(&a)
	merged.merge(&b)
	if merged.text() != whole.text() {
		t.Fatalf("merged accumulator %s != contiguous %s", merged.text(), whole.text())
	}
}

func TestExactSumRoundTrip(t *testing.T) {
	var s exactSum
	s.add(3.7)
	s.add(-1.2e-30)
	var r exactSum
	if err := r.setText(s.text(), sumBits); err != nil {
		t.Fatal(err)
	}
	if r.text() != s.text() || r.value() != s.value() {
		t.Fatalf("round trip changed the accumulator: %s -> %s", s.text(), r.text())
	}
	if err := r.setText("not a number", sumBits); err == nil {
		t.Fatal("setText accepted garbage")
	}
}

// setText refuses accumulators no sum of 2^63 finite values reaches,
// before a huge exponent or mantissa can allocate: the 14 bytes
// "1*2^2000000000" would otherwise ask for a 238 MiB accumulator.
func TestExactSumTextBounded(t *testing.T) {
	var large exactSum
	for range 1000 {
		large.add(math.MaxFloat64)
	}
	var r exactSum
	for _, ok := range []string{large.text(), "1*2^1086", "-1*2^1086", "1*2^-1126"} {
		if err := r.setText(ok, sumBits); err != nil {
			t.Errorf("setText(%.40s) refused: %v", ok, err)
		}
	}
	for _, bad := range []string{
		"1*2^1087", "3*2^1086", "1*2^2000000000", "1*2^-1127",
		strings.Repeat("9", 1000) + "*2^0", "1" + strings.Repeat("0", 700) + "*2^-1126",
	} {
		allocs := testing.AllocsPerRun(1, func() {
			if err := r.setText(bad, sumBits); err == nil {
				t.Errorf("setText(%.40s) accepted", bad)
			}
		})
		if allocs > 20 {
			t.Errorf("setText(%.40s) made %v allocations", bad, allocs)
		}
	}
}

// TestMomentsHugeValues adds finite values whose square passes the
// float64 range. Add must not panic, Σx² must hold the exact square, and
// a one-trial summary of such a time must marshal, decode and marshal
// again to the same bytes, and merge. Just below the range the rounded
// x·x stays, so no existing sketch changes.
func TestMomentsHugeValues(t *testing.T) {
	exactSq := func(x float64) *big.Float {
		f := new(big.Float).SetPrec(2048).SetFloat64(x)
		return f.Mul(f, f)
	}
	var neg Moments
	neg.Add(-1.35e154)
	if got := neg.sqs.float(0); got.Cmp(exactSq(-1.35e154)) != 0 {
		t.Fatalf("-1.35e154: sum of squares %v, want %v", got, exactSq(-1.35e154))
	}
	for _, x := range []float64{1.35e154, math.MaxFloat64} {
		s := NewSummary()
		res := fakeResult("ct-uniform", 0, 5, false)
		res.Continuous, res.Time = true, x
		s.Add(res)
		if got := s.Makespan.Moments.sqs.float(0); got.Cmp(exactSq(x)) != 0 {
			t.Fatalf("%v: sum of squares %v, want %v", x, got, exactSq(x))
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%v: %v", x, err)
		}
		var r Summary
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatalf("%v: %v", x, err)
		}
		if b2, err := json.Marshal(&r); err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("%v: round trip gave %s, %v; want %s", x, b2, err, b)
		}
		merged := NewSummary()
		for _, part := range []*Summary{s, &r} {
			if err := merged.Merge(part); err != nil {
				t.Fatalf("%v: %v", x, err)
			}
		}
		m := merged.Makespan.Moments
		if m.N() != 2 || m.Mean() != x || m.Variance() != 0 {
			t.Fatalf("%v: merged n %d, mean %v, variance %v", x, m.N(), m.Mean(), m.Variance())
		}
		if _, err := json.Marshal(merged); err != nil {
			t.Fatalf("%v: merged: %v", x, err)
		}
	}
	// Two huge values far apart: the variance passes the float64 range
	// and reads +Inf, as documented.
	var m Moments
	m.Add(math.MaxFloat64)
	m.Add(0)
	if v := m.Variance(); !math.IsInf(v, 1) || !math.IsInf(m.StdErr(), 1) {
		t.Fatalf("variance %v, standard error %v; want +Inf", v, m.StdErr())
	}
	x := 1.34e154 // x·x is finite
	var below, rounded Moments
	below.Add(x)
	rounded.sqs.add(x * x)
	if below.sqs.text() != rounded.sqs.text() {
		t.Fatalf("%v: sum of squares %s, want the rounded square %s", x, below.sqs.text(), rounded.sqs.text())
	}
}

func TestExactSumRejectsNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("add(%v) did not panic", x)
				}
			}()
			var s exactSum
			s.add(x)
		}()
	}
}

func TestMomentsMatchOfflineStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 1000)
	m := NewMoments()
	for i := range xs {
		xs[i] = 50 + 10*rng.NormFloat64()
		m.Add(xs[i])
	}
	sum := stats.Summarize(xs)
	if m.N() != int64(len(xs)) || m.Min() != sum.Min || m.Max() != sum.Max {
		t.Fatalf("n/min/max = %d/%v/%v, want %d/%v/%v", m.N(), m.Min(), m.Max(), len(xs), sum.Min, sum.Max)
	}
	// The sketch's mean/variance come from exact sums; the offline
	// Summarize uses naive float64 accumulation, so allow it (not the
	// sketch) a few ulps of drift.
	if math.Abs(m.Mean()-sum.Mean) > 1e-9*math.Abs(sum.Mean) {
		t.Errorf("mean %v, offline %v", m.Mean(), sum.Mean)
	}
	if math.Abs(m.Variance()-sum.Variance) > 1e-9*sum.Variance {
		t.Errorf("variance %v, offline %v", m.Variance(), sum.Variance)
	}
	if m.StdDev() != math.Sqrt(m.Variance()) {
		t.Errorf("stddev %v != sqrt(variance)", m.StdDev())
	}
	wantSE := m.StdDev() / math.Sqrt(float64(len(xs)))
	if m.StdErr() != wantSE {
		t.Errorf("stderr %v, want %v", m.StdErr(), wantSE)
	}
}

func TestMomentsMergeByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 100
	}
	whole := NewMoments()
	for _, x := range xs {
		whole.Add(x)
	}
	wantJSON, err := json.Marshal(whole)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range [][]int{{100, 200}, {1, 299}, {150, 151}} {
		parts := []*Moments{NewMoments(), NewMoments(), NewMoments()}
		for i, x := range xs {
			switch {
			case i < cut[0]:
				parts[0].Add(x)
			case i < cut[1]:
				parts[1].Add(x)
			default:
				parts[2].Add(x)
			}
		}
		merged := NewMoments()
		merged.Merge(parts[2])
		merged.Merge(parts[0])
		merged.Merge(parts[1])
		got, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSON) {
			t.Fatalf("split %v: merged JSON differs from contiguous:\n%s\n%s", cut, got, wantJSON)
		}
	}
}

func TestMomentsJSONRoundTrip(t *testing.T) {
	m := NewMoments()
	for _, x := range []float64{1.5, 0, 2.25, 1e12} {
		m.Add(x)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var r Moments
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("round trip changed the JSON:\n%s\n%s", b, b2)
	}
}

func TestQuantilesAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 5000)
	q := NewQuantiles(0)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 1000
		q.Add(xs[i])
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got := q.Query(p)
		want := stats.Quantile(sorted, p)
		// Documented bound: relative error Alpha versus the exact sample
		// quantile, plus the interpolation gap between the adjacent order
		// statistics. With 5000 samples the gap is far below Alpha·want at
		// interior quantiles; fold both into a 1.5·Alpha budget.
		if math.Abs(got-want) > 1.5*q.Alpha()*want+1e-12 {
			t.Errorf("q%.2f = %v, exact %v (relative error %.4f)", p, got, want, math.Abs(got-want)/want)
		}
	}
}

func TestQuantilesZerosAndSmallN(t *testing.T) {
	q := NewQuantiles(0)
	q.Add(0)
	q.Add(0)
	q.Add(10)
	if got := q.Query(0); got != 0 {
		t.Errorf("q0 = %v, want 0", got)
	}
	if got := q.Query(0.5); got != 0 {
		t.Errorf("q50 of {0,0,10} = %v, want 0", got)
	}
	hi := q.Query(1)
	if math.Abs(hi-10) > DefaultAlpha*10 {
		t.Errorf("q100 = %v, want 10 within alpha", hi)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("query on empty sketch did not panic")
			}
		}()
		NewQuantiles(0).Query(0.5)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add(-1) did not panic")
			}
		}()
		NewQuantiles(0).Add(-1)
	}()
}

func TestQuantilesMergeByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	whole := NewQuantiles(0)
	parts := []*Quantiles{NewQuantiles(0), NewQuantiles(0), NewQuantiles(0), NewQuantiles(0)}
	for i := 0; i < 2000; i++ {
		x := rng.ExpFloat64() * 50
		if i%97 == 0 {
			x = 0
		}
		whole.Add(x)
		parts[i%4].Add(x)
	}
	merged := NewQuantiles(0)
	for _, i := range []int{2, 0, 3, 1} {
		if err := merged.Merge(parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := json.Marshal(merged)
	want, _ := json.Marshal(whole)
	if !bytes.Equal(got, want) {
		t.Fatalf("merged JSON differs from contiguous:\n%s\n%s", got, want)
	}
	if err := merged.Merge(NewQuantiles(0.05)); err == nil {
		t.Fatal("merge across alpha values did not error")
	}
}

// hugeValues are values whose bucket midpoint passes math.MaxFloat64.
var hugeValues = []float64{math.MaxFloat64, math.MaxFloat64 / 1.02}

func TestQuantilesJSONRoundTrip(t *testing.T) {
	q := NewQuantiles(0)
	for _, x := range []float64{0, 1, 2, 4, 1000} {
		q.Add(x)
	}
	b, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var r Quantiles
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("round trip changed the JSON:\n%s\n%s", b, b2)
	}
	// The top buckets' midpoints pass the largest float64; their
	// representative is capped there, so the sketch still marshals.
	for _, x := range hugeValues {
		q := NewQuantiles(0)
		q.Add(x)
		b, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("sketch of %v: %v", x, err)
		}
		var r Quantiles
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatalf("sketch of %v: %v", x, err)
		}
		if b2, err := json.Marshal(&r); err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("sketch of %v: round trip gave %s, %v; want %s", x, b2, err, b)
		}
		if got := r.Query(0.5); math.Abs(got-x) > DefaultAlpha*x {
			t.Errorf("sketch of %v answers %v, past relative error %v", x, got, DefaultAlpha)
		}
	}
	for name, in := range map[string]string{
		"unsorted keys":       `{"alpha":0.01,"n":2,"keys":[2,1],"counts":[1,1]}`,
		"repeated key":        `{"alpha":0.01,"n":2,"keys":[1,1],"counts":[1,1]}`,
		"bad alpha":           `{"alpha":2,"n":0,"keys":[],"counts":[]}`,
		"n without buckets":   `{"alpha":0.01,"n":5,"keys":[],"counts":[]}`,
		"n above the counts":  `{"alpha":0.01,"n":3,"zero":1,"keys":[4],"counts":[1]}`,
		"zero count":          `{"alpha":0.01,"n":1,"keys":[4,5],"counts":[1,0]}`,
		"negative count":      `{"alpha":0.01,"n":1,"keys":[4,5],"counts":[2,-1]}`,
		"negative zeros":      `{"alpha":0.01,"n":1,"zero":-1,"keys":[4],"counts":[2]}`,
		"overflowing counts":  `{"alpha":0.01,"n":-2,"keys":[4,5],"counts":[9223372036854775807,9223372036854775807]}`,
		"overflow from zeros": `{"alpha":0.01,"n":0,"zero":9223372036854775807,"keys":[4],"counts":[1]}`,
	} {
		var bad Quantiles
		if err := json.Unmarshal([]byte(in), &bad); err == nil {
			t.Errorf("%s accepted: %s", name, in)
		}
	}
}

func TestHistogramCollapseIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = rng.Float64() * 900 // forces several collapses from width 1
	}
	h := NewHistogram(16, 1)
	for _, x := range xs {
		h.Add(x)
	}
	// Rebuild from scratch at the final width: counts must be identical,
	// because collapsing preserves the exact-histogram invariant.
	ref := NewHistogram(16, h.Width())
	for _, x := range xs {
		ref.Add(x)
	}
	if ref.Width() != h.Width() {
		t.Fatalf("reference collapsed further: %v vs %v", ref.Width(), h.Width())
	}
	for i := 0; i < h.Buckets(); i++ {
		if h.Count(i) != ref.Count(i) {
			t.Fatalf("bucket %d: %d after collapses, %d from scratch", i, h.Count(i), ref.Count(i))
		}
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewHistogram(4, 10)
	for _, x := range []float64{0, 5, 15, 35} {
		h.Add(x)
	}
	cases := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {10, 0.5}, {20, 0.75}, {30, 0.75}, {40, 1}, {1000, 1},
		{5, 0.25},   // half through bucket 0, which holds 2 of 4
		{35, 0.875}, // half through bucket 3
	}
	for _, c := range cases {
		if got := h.CDF(c.x); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if NewHistogram(0, 0).CDF(5) != 0 {
		t.Error("empty histogram CDF not 0")
	}
}

func TestHistogramMergeByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 40
	}
	whole := NewHistogram(0, 0)
	// Split so the shards see very different ranges (and thus end at
	// different widths): small values first, large last.
	sort.Float64s(xs)
	parts := []*Histogram{NewHistogram(0, 0), NewHistogram(0, 0)}
	for i, x := range xs {
		whole.Add(x)
		parts[i/500].Add(x)
	}
	merged := NewHistogram(0, 0)
	for _, i := range []int{1, 0} {
		if err := merged.Merge(parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := json.Marshal(merged)
	want, _ := json.Marshal(whole)
	if !bytes.Equal(got, want) {
		t.Fatalf("merged JSON differs from contiguous:\n%s\n%s", got, want)
	}
	if err := merged.Merge(NewHistogram(32, 1)); err == nil {
		t.Fatal("merge across layouts did not error")
	}
	// The finer-than-receiver direction must also leave o unchanged.
	fine := NewHistogram(0, 0)
	fine.Add(1)
	coarse := NewHistogram(0, 0)
	coarse.Add(1e6)
	before, _ := json.Marshal(fine)
	wide := NewHistogram(0, 0)
	wide.Merge(coarse)
	wide.Merge(fine)
	after, _ := json.Marshal(fine)
	if !bytes.Equal(before, after) {
		t.Fatal("Merge mutated its argument")
	}
	if wide.N() != 2 {
		t.Fatalf("merged n = %d, want 2", wide.N())
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram(8, 2)
	for _, x := range []float64{0, 3, 100} {
		h.Add(x)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var r Histogram
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("round trip changed the JSON:\n%s\n%s", b, b2)
	}
	var bad Histogram
	if err := json.Unmarshal([]byte(`{"buckets":3,"width0":1,"width":1,"n":0,"counts":[0,0,0]}`), &bad); err == nil {
		t.Fatal("odd bucket count accepted")
	}
	if err := json.Unmarshal([]byte(`{"buckets":4,"width0":1,"width":1,"n":0,"counts":[0]}`), &bad); err == nil {
		t.Fatal("short counts accepted")
	}
	if err := json.Unmarshal([]byte(`{"buckets":2,"width0":1,"width":1,"n":0,"counts":[1,-1]}`), &bad); err == nil {
		t.Fatal("negative count accepted")
	}
	if err := json.Unmarshal([]byte(`{"buckets":2,"width0":1,"width":1,"n":5,"counts":[1,1]}`), &bad); err == nil {
		t.Fatal("n that disagrees with the counts accepted")
	}
	if err := json.Unmarshal([]byte(`{"buckets":2,"width0":1,"width":1,"n":-2,"counts":[9223372036854775807,9223372036854775807]}`), &bad); err == nil {
		t.Fatal("overflowing counts accepted")
	}
}

// fakeResult builds a synthetic discrete Result for summary tests.
func fakeResult(process string, makespan, total int64, truncated bool) *dispersion.Result {
	settled := []int32{0, 1}
	if truncated {
		settled = []int32{0, -1}
	}
	return &dispersion.Result{
		Process:    process,
		Dispersion: makespan,
		TotalSteps: total,
		SettledAt:  settled,
		Truncated:  truncated,
		Capacity:   1,
	}
}

func TestSummaryAddAndTallies(t *testing.T) {
	s := NewSummary()
	s.Add(fakeResult("sequential", 10, 25, false))
	s.Add(fakeResult("sequential", 20, 55, true))
	if s.Process != "sequential" || s.Trials != 2 || s.Truncated != 1 || s.Unsettled != 1 {
		t.Fatalf("identity/tallies = %q/%d/%d/%d", s.Process, s.Trials, s.Truncated, s.Unsettled)
	}
	if got := s.Makespan.Moments.Mean(); got != 15 {
		t.Errorf("makespan mean %v, want 15", got)
	}
	if got := s.TotalSteps.Moments.Sum(); got != 80 {
		t.Errorf("total-steps sum %v, want 80", got)
	}
	if s.Makespan.Histogram == nil || s.TotalSteps.Histogram != nil {
		t.Error("histogram placement wrong: want on makespan only")
	}
	s.Add(fakeResult("parallel", 5, 9, false))
	if s.Process != MixedProcess {
		t.Errorf("process %q after mixing, want %q", s.Process, MixedProcess)
	}
}

func TestSummaryMergeByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	results := make([]*dispersion.Result, 400)
	for i := range results {
		results[i] = fakeResult("sequential", int64(rng.Intn(500)), int64(rng.Intn(2000)), i%37 == 0)
	}
	whole := NewSummary()
	for _, r := range results {
		whole.Add(r)
	}
	want, err := json.Marshal(whole)
	if err != nil {
		t.Fatal(err)
	}
	parts := []*Summary{NewSummary(), NewSummary(), NewSummary()}
	for i, r := range results {
		parts[i%3].Add(r)
	}
	merged := NewSummary()
	for _, i := range []int{1, 2, 0} {
		if err := merged.Merge(parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged JSON differs from contiguous:\n%s\n%s", got, want)
	}

	// Merging an empty summary is a no-op; merging into an empty one
	// adopts the identity.
	if err := merged.Merge(NewSummary()); err != nil {
		t.Fatal(err)
	}
	got2, _ := json.Marshal(merged)
	if !bytes.Equal(got2, want) {
		t.Fatal("merging an empty summary changed the state")
	}
	adopt := NewSummary()
	if err := adopt.Merge(whole); err != nil {
		t.Fatal(err)
	}
	got3, _ := json.Marshal(adopt)
	if !bytes.Equal(got3, want) {
		t.Fatal("merge into empty summary differs from the original")
	}
}

func TestSummaryJSONRoundTrip(t *testing.T) {
	s := Config{Alpha: 0.02, HistBuckets: 32, HistWidth: 0.5}.NewSummary()
	s.Add(fakeResult("sequential", 7, 12, false))
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var r Summary
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	if r.cfg != (Config{Alpha: 0.02, HistBuckets: 32, HistWidth: 0.5}) {
		t.Fatalf("restored config %+v", r.cfg)
	}
	b2, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("round trip changed the JSON:\n%s\n%s", b, b2)
	}
	// A restored summary keeps folding and merging.
	r.Add(fakeResult("sequential", 9, 14, false))
	if r.Trials != 2 {
		t.Fatalf("trials after post-restore Add = %d", r.Trials)
	}
	var bad Summary
	if err := json.Unmarshal([]byte(`{"process":"x","trials":0}`), &bad); err == nil {
		t.Fatal("summary without columns accepted")
	}
}

func TestSummaryMergeLayoutMismatch(t *testing.T) {
	a := NewSummary()
	a.Add(fakeResult("sequential", 1, 1, false))
	b := Config{Alpha: 0.1}.NewSummary()
	b.Add(fakeResult("sequential", 1, 1, false))
	if err := a.Merge(b); err == nil {
		t.Fatal("merge across sketch configs did not error")
	}
}
