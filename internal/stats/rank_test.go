package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestMannWhitneyDetectsShift(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 0))
	a := make([]float64, 400)
	b := make([]float64, 400)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64() + 0.5
	}
	if _, p := MannWhitneyU(a, b); p >= 0.01 {
		t.Error("failed to detect a < b shift")
	}
	if _, p := MannWhitneyU(b, a); p < 0.01 {
		t.Error("detected shift in the wrong direction")
	}
}

func TestMannWhitneyNullCalibrated(t *testing.T) {
	// Under the null (equal distributions), p < 0.05 should happen ~5% of
	// the time.
	hits := 0
	const reps = 400
	for rep := 0; rep < reps; rep++ {
		r := rand.New(rand.NewPCG(2, uint64(rep)))
		a := make([]float64, 80)
		b := make([]float64, 80)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		if _, p := MannWhitneyU(a, b); p < 0.05 {
			hits++
		}
	}
	frac := float64(hits) / reps
	if frac > 0.10 {
		t.Errorf("null rejection rate %.3f, want ~0.05", frac)
	}
}

func TestMannWhitneyHandlesTies(t *testing.T) {
	a := []float64{1, 1, 1, 2, 2}
	b := []float64{1, 2, 2, 2, 3}
	u, p := MannWhitneyU(a, b)
	if math.IsNaN(u) || math.IsNaN(p) || p < 0 || p > 1 {
		t.Fatalf("tie handling produced u=%g p=%g", u, p)
	}
	// Identical all-tied samples: U equals its null mean and the test is
	// inconclusive.
	c := []float64{5, 5, 5, 5}
	if u, p := MannWhitneyU(c, c); u != 8 || p != 0.5 {
		t.Errorf("all-tied (u, p) = (%g, %g), want (8, 0.5)", u, p)
	}
}

func TestMannWhitneyExtremeSeparation(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	u, p := MannWhitneyU(a, b)
	if u != 0 {
		t.Errorf("fully separated samples: U = %g, want 0", u)
	}
	if p > 0.05 {
		t.Errorf("fully separated samples: p = %g", p)
	}
}
