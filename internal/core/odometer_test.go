package core

import (
	"testing"

	"dispersion/internal/graph"
	"dispersion/internal/rng"
)

func TestOdometerAccounting(t *testing.T) {
	g := graph.Cycle(12)
	res, err := runOnce(SequentialInto, g, 0, Options{Record: true}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOdometer(g, res)
	if err != nil {
		t.Fatal(err)
	}
	// Total arrivals = total steps + one initial placement per particle.
	want := res.TotalSteps + int64(g.N())
	if o.Total() != want {
		t.Fatalf("odometer total %d, want %d", o.Total(), want)
	}
	// Every vertex hosts exactly one settler.
	for v, s := range o.Settling {
		if s != 1 {
			t.Fatalf("vertex %d has %d settlers", v, s)
		}
	}
	// Every vertex was visited at least once (it hosts a settler).
	for v, c := range o.Visits {
		if c < 1 {
			t.Fatalf("vertex %d never visited", v)
		}
	}
}

func TestOdometerRequiresRecording(t *testing.T) {
	g := graph.Path(5)
	res, err := runOnce(SequentialInto, g, 0, Options{}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOdometer(g, res); err == nil {
		t.Fatal("unrecorded run accepted")
	}
}

func TestOdometerOriginIsBusiest(t *testing.T) {
	// With a common origin every particle is placed there, so the origin
	// dominates the visit counts on a star (all walks alternate through
	// the centre... origin = centre).
	g := graph.Star(16)
	res, err := runOnce(SequentialInto, g, 0, Options{Record: true}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOdometer(g, res)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := o.Max()
	if v != 0 {
		t.Fatalf("busiest vertex %d, want the centre 0", v)
	}
}
