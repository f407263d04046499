package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dispersion/internal/rng"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Variance-2.5) > 1e-12 {
		t.Fatalf("variance %.4f, want 2.5", s.Variance)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Variance != 0 || s.StdErr != 0 {
		t.Fatalf("bad singleton summary: %+v", s)
	}
}

func TestCI95Coverage(t *testing.T) {
	// The 95% CI should contain the true mean ~95% of the time.
	covered := 0
	const reps = 400
	for rep := 0; rep < reps; rep++ {
		r := rand.New(rand.NewPCG(1, uint64(rep)))
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = r.NormFloat64() + 10
		}
		lo, hi := Summarize(xs).CI95()
		if lo <= 10 && 10 <= hi {
			covered++
		}
	}
	frac := float64(covered) / reps
	if frac < 0.90 || frac > 0.99 {
		t.Errorf("CI95 covered %.3f of the time, want ~0.95", frac)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if Quantile(sorted, 0) != 0 || Quantile(sorted, 1) != 10 {
		t.Fatal("extreme quantiles wrong")
	}
	if Quantile(sorted, 0.5) != 5 {
		t.Fatalf("median = %g", Quantile(sorted, 0.5))
	}
	if math.Abs(Quantile(sorted, 0.25)-2.5) > 1e-12 {
		t.Fatalf("q25 = %g", Quantile(sorted, 0.25))
	}
}

func TestQuantileRejectsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile accepted an unsorted sample")
		}
	}()
	Quantile([]float64{3, 1, 2}, 0.5)
}

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("F(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestDominatedBy(t *testing.T) {
	r := rng.New(3)
	small := make([]float64, 2000)
	big := make([]float64, 2000)
	for i := range small {
		small[i] = r.ExpFloat64()
		big[i] = r.ExpFloat64() * 2
	}
	se, be := NewECDF(small), NewECDF(big)
	if !se.DominatedBy(be, 0.05) {
		t.Error("Exp(1) should be dominated by 2·Exp(1)")
	}
	if be.DominatedBy(se, 0.05) {
		t.Error("2·Exp(1) should not be dominated by Exp(1)")
	}
}

func TestKSEqualSamplesAccepted(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 0))
	a := make([]float64, 1500)
	b := make([]float64, 1500)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64()
	}
	if d := KSStatistic(a, b); KSPValue(d, len(a), len(b)) <= 0.01 {
		t.Errorf("KS rejected identical normals: D=%.4f p=%.4g", d, KSPValue(d, len(a), len(b)))
	}
}

func TestKSDifferentSamplesRejected(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 0))
	a := make([]float64, 1500)
	b := make([]float64, 1500)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64() + 0.5
	}
	if KSPValue(KSStatistic(a, b), len(a), len(b)) > 0.01 {
		t.Error("KS failed to reject shifted normals")
	}
}

func TestKSStatisticBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		a := make([]float64, 50)
		b := make([]float64, 70)
		for i := range a {
			a[i] = r.Float64()
		}
		for i := range b {
			b[i] = r.Float64()
		}
		d := KSStatistic(a, b)
		return d >= 0 && d <= 1
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	f := FitLine(xs, ys)
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-3) > 1e-12 || f.R2 < 0.999999 {
		t.Fatalf("fit %+v, want slope 2 intercept 3", f)
	}
}

func TestFitPowerLawExact(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 32}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	alpha, c, r2 := FitPowerLaw(xs, ys)
	if math.Abs(alpha-1.5) > 1e-9 || math.Abs(c-3) > 1e-9 || r2 < 0.999999 {
		t.Fatalf("power fit alpha=%.4f c=%.4f r2=%.6f", alpha, c, r2)
	}
}

func TestFitPowerLawNoisy(t *testing.T) {
	r := rand.New(rand.NewPCG(6, 0))
	var xs, ys []float64
	for _, n := range []float64{64, 128, 256, 512, 1024} {
		xs = append(xs, n)
		ys = append(ys, 2*n*n*(1+0.05*r.NormFloat64()))
	}
	alpha, _, _ := FitPowerLaw(xs, ys)
	if alpha < 1.8 || alpha > 2.2 {
		t.Fatalf("noisy quadratic fit alpha=%.3f", alpha)
	}
}

func TestFraction(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Fraction(xs, func(x float64) bool { return x > 3 }); got != 0.4 {
		t.Fatalf("Fraction = %g, want 0.4", got)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}
