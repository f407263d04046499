package stats

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// --- TQuantile / TCDF / RegIncBeta against published table values ---

func TestTQuantileTableValues(t *testing.T) {
	// Standard two-sided critical values t_{p, df} (e.g. Abramowitz &
	// Stegun table 26.10).
	cases := []struct {
		df, p, want float64
	}{
		{1, 0.975, 12.70620474},
		{2, 0.975, 4.30265273},
		{4, 0.95, 2.13184679},
		{9, 0.975, 2.26215716},
		{10, 0.995, 3.16927267},
		{30, 0.975, 2.04227246},
		{100, 0.975, 1.98397152},
		{5, 0.5, 0},
	}
	for _, c := range cases {
		got := TQuantile(c.df, c.p)
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("TQuantile(%g, %g) = %.8f, want %.8f", c.df, c.p, got, c.want)
		}
		// Symmetry: the lower-tail quantile is the negation.
		if c.p != 0.5 {
			if lo := TQuantile(c.df, 1-c.p); math.Abs(lo+c.want) > 1e-6 {
				t.Errorf("TQuantile(%g, %g) = %.8f, want %.8f", c.df, 1-c.p, lo, -c.want)
			}
		}
	}
}

func TestTCDFRoundTrip(t *testing.T) {
	for _, df := range []float64{1, 3, 7, 25.5} {
		for _, p := range []float64{0.01, 0.2, 0.5, 0.9, 0.999} {
			q := TQuantile(df, p)
			if back := TCDF(q, df); math.Abs(back-p) > 1e-9 {
				t.Errorf("TCDF(TQuantile(%g, %g)) = %g", df, p, back)
			}
		}
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	cases := []struct {
		a, b, x, want float64
	}{
		{1, 1, 0.3, 0.3},          // I_x(1,1) = x
		{2, 1, 0.5, 0.25},         // I_x(2,1) = x²
		{1, 2, 0.5, 0.75},         // I_x(1,2) = 1-(1-x)²
		{0.5, 0.5, 0.5, 0.5},      // arcsine distribution median
		{5, 3, 0.0, 0},            // boundary
		{5, 3, 1.0, 1},            // boundary
		{2, 2, 0.5, 0.5},          // symmetry
		{3, 2, 0.4, 0.1792},       // 4x³-3x⁴ at 0.4: 0.256-0.0768
		{0.5, 0.5, 0.25, 1.0 / 3}, // I_{sin²(π/6)}(½,½) = 2·(π/6)/π
	}
	for _, c := range cases {
		if got := RegIncBeta(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("RegIncBeta(%g, %g, %g) = %.10f, want %.10f", c.a, c.b, c.x, got, c.want)
		}
	}
}

// --- MeanCI ---

func TestMeanCITableValues(t *testing.T) {
	cases := []struct {
		name   string
		xs     []float64
		level  float64
		lo, hi float64
	}{
		// mean 3, sd √2.5, stderr √0.5, t_{.975,4} = 2.7764451 →
		// halfwidth 1.9632432.
		{"one-to-five", []float64{1, 2, 3, 4, 5}, 0.95, 3 - 1.9632432, 3 + 1.9632432},
		// mean 10, sample variance 16/3, stderr 1.1547005,
		// t_{.975,3} = 3.1824463 → halfwidth 3.6747725.
		{"spread-four", []float64{8, 8, 12, 12}, 0.95, 10 - 3.6747725, 10 + 3.6747725},
		// n = 2: mean 1.5, sd √0.5, stderr 0.5, t_{.95,1} = 6.3137515.
		{"pair-90", []float64{1, 2}, 0.90, 1.5 - 3.1568758, 1.5 + 3.1568758},
	}
	for _, c := range cases {
		iv, err := MeanCI(c.xs, c.level)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(iv.Lo-c.lo) > 1e-6 || math.Abs(iv.Hi-c.hi) > 1e-6 {
			t.Errorf("%s: CI = [%.7f, %.7f], want [%.7f, %.7f]", c.name, iv.Lo, iv.Hi, c.lo, c.hi)
		}
		if iv.Level != c.level {
			t.Errorf("%s: level %g, want %g", c.name, iv.Level, c.level)
		}
	}
}

func TestMeanCIDegenerate(t *testing.T) {
	// n = 1: no spread information, degenerate interval at level 0.
	iv, err := MeanCI([]float64{42}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 42 || iv.Hi != 42 || iv.Level != 0 {
		t.Errorf("n=1: got %v", iv)
	}
	// All-equal sample: zero stderr, degenerate interval at the
	// requested level.
	iv, err = MeanCI([]float64{7, 7, 7, 7, 7, 7}, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 7 || iv.Hi != 7 || iv.Level != 0.99 {
		t.Errorf("all-equal: got %v", iv)
	}
}

func TestMeanCIRejectsBadInput(t *testing.T) {
	if _, err := MeanCI(nil, 0.95); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := MeanCI([]float64{1, math.NaN(), 3}, 0.95); err == nil {
		t.Error("NaN accepted")
	} else if !strings.Contains(err.Error(), "not finite") {
		t.Errorf("NaN error %q does not name the cause", err)
	}
	if _, err := MeanCI([]float64{1, math.Inf(1)}, 0.95); err == nil {
		t.Error("+Inf accepted")
	}
	if _, err := MeanCI([]float64{1, 2}, 1.5); err == nil {
		t.Error("level 1.5 accepted")
	}
	if _, err := MeanCI([]float64{1, 2}, 0); err == nil {
		t.Error("level 0 accepted")
	}
}

// --- MedianCI ---

func TestMedianCIOrderStatistics(t *testing.T) {
	// n = 10, level 0.95: l = 2 (2·P(Bin(10,½) <= 1) = 22/1024 ≈ 0.0215),
	// interval [x_(2), x_(9)], achieved coverage 1 - 22/1024 =
	// 0.978515625.
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	iv, err := MedianCI(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 2 || iv.Hi != 9 {
		t.Errorf("n=10: interval [%g, %g], want [2, 9]", iv.Lo, iv.Hi)
	}
	if math.Abs(iv.Level-0.978515625) > 1e-12 {
		t.Errorf("n=10: achieved level %.9f, want 0.978515625", iv.Level)
	}
	// n = 6, level 0.95: only l = 1 qualifies (2·P(<=1) = 14/64 ≈ 0.22),
	// so the interval is the full range with achieved level 1 - 2/64 =
	// 0.96875.
	iv, err = MedianCI([]float64{4, 1, 6, 2, 5, 3}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 1 || iv.Hi != 6 {
		t.Errorf("n=6: interval [%g, %g], want [1, 6]", iv.Lo, iv.Hi)
	}
	if math.Abs(iv.Level-0.96875) > 1e-12 {
		t.Errorf("n=6: achieved level %.6f, want 0.96875", iv.Level)
	}
}

func TestMedianCIDegenerate(t *testing.T) {
	// n = 1: the only possible interval, with zero achieved coverage.
	iv, err := MedianCI([]float64{5}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 5 || iv.Hi != 5 || iv.Level != 0 {
		t.Errorf("n=1: got %v", iv)
	}
	// All-equal: degenerate interval whatever the order statistics say.
	iv, err = MedianCI([]float64{3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 3 || iv.Hi != 3 {
		t.Errorf("all-equal: got %v", iv)
	}
}

func TestMedianCIRejectsBadInput(t *testing.T) {
	if _, err := MedianCI(nil, 0.95); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := MedianCI([]float64{math.NaN()}, 0.95); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := MedianCI([]float64{1, 2, 3}, -0.5); err == nil {
		t.Error("negative level accepted")
	}
}

func TestMedianCICoversTrueMedian(t *testing.T) {
	// Coverage check: the distribution-free interval should cover the true median (0 for the
	// standard normal) at about its stated level.
	covered, reps := 0, 300
	for rep := 0; rep < reps; rep++ {
		r := rand.New(rand.NewPCG(11, uint64(rep)))
		xs := make([]float64, 30)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		iv, err := MedianCI(xs, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Lo <= 0 && 0 <= iv.Hi {
			covered++
		}
	}
	if frac := float64(covered) / float64(reps); frac < 0.88 {
		t.Errorf("median CI covered %.3f, want ~0.95+", frac)
	}
}
