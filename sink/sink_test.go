package sink_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"dispersion"
	"dispersion/sink"
)

// run collects a job's trials in memory while teeing them through the
// given writers, via the same callback path production code uses.
func run(t *testing.T, job dispersion.Job, ws ...sink.Writer) []dispersion.Trial {
	t.Helper()
	var got []dispersion.Trial
	eng := dispersion.Engine{Seed: 11, Experiment: 5}
	each := sink.Tee(ws...)
	err := eng.Run(context.Background(), job, func(tr dispersion.Trial) error {
		got = append(got, tr)
		return each(tr)
	})
	if err != nil {
		t.Fatalf("Engine.Run: %v", err)
	}
	return got
}

// A JSONL round trip must reproduce the in-memory results exactly, for
// discrete and continuous-time processes alike.
func TestJSONLRoundTrip(t *testing.T) {
	for _, process := range []string{"sequential", "ct-uniform"} {
		var buf bytes.Buffer
		job := dispersion.Job{Process: process, Spec: "cycle:24", Trials: 8}
		want := run(t, job, sink.NewJSONL(&buf))
		got, err := sink.ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("%s: ReadJSONL: %v", process, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: JSONL round trip diverged\n got %+v\nwant %+v", process, got, want)
		}
	}
}

// The CSV round trip preserves every scalar column.
func TestCSVRoundTrip(t *testing.T) {
	for _, process := range []string{"parallel", "capacity"} {
		var buf bytes.Buffer
		cw := sink.NewCSV(&buf)
		job := dispersion.Job{Process: process, Spec: "complete:32", Trials: 10}
		want := run(t, job, cw)
		if err := cw.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		rows, err := sink.ReadCSV(&buf)
		if err != nil {
			t.Fatalf("ReadCSV: %v", err)
		}
		if len(rows) != len(want) {
			t.Fatalf("got %d rows, want %d", len(rows), len(want))
		}
		for i, row := range rows {
			res := want[i].Result
			ref := sink.Row{
				Trial:      want[i].Index,
				Process:    res.Process,
				Continuous: res.Continuous,
				Makespan:   res.Makespan(),
				Dispersion: res.Dispersion,
				TotalSteps: res.TotalSteps,
				Time:       res.Time,
				Truncated:  res.Truncated,
				Unsettled:  res.Unsettled(),
				Capacity:   res.Capacity,
			}
			if row != ref {
				t.Errorf("%s row %d: got %+v, want %+v", process, i, row, ref)
			}
			wantCap := 1
			if process == "capacity" {
				wantCap = 2
			}
			if row.Capacity != wantCap {
				t.Errorf("%s row %d: capacity column %d, want %d", process, i, row.Capacity, wantCap)
			}
		}
	}
}

// Files written before the capacity column existed still read back, with
// Capacity defaulted to 1.
func TestCSVLegacyHeader(t *testing.T) {
	legacy := "trial,process,continuous,makespan,dispersion,total_steps,time,truncated,unsettled\n" +
		"0,parallel,false,188,188,1122,0,false,0\n" +
		"1,sequential,false,95,95,431,0,false,0\n"
	rows, err := sink.ReadCSV(bytes.NewReader([]byte(legacy)))
	if err != nil {
		t.Fatalf("ReadCSV legacy: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for i, row := range rows {
		if row.Capacity != 1 {
			t.Errorf("row %d: Capacity = %d, want the pre-capacity default 1", i, row.Capacity)
		}
	}
	if rows[1].Process != "sequential" || rows[1].Dispersion != 95 {
		t.Errorf("legacy row parsed wrong: %+v", rows[1])
	}
}

// Pre-capacity JSONL records (no Capacity field) read back with the same
// default 1 as legacy CSVs.
func TestJSONLLegacyCapacity(t *testing.T) {
	legacy := `{"trial":0,"result":{"Process":"parallel","Dispersion":7,"TotalSteps":21}}` + "\n"
	trials, err := sink.ReadJSONL(bytes.NewReader([]byte(legacy)))
	if err != nil {
		t.Fatalf("ReadJSONL legacy: %v", err)
	}
	if len(trials) != 1 || trials[0].Result.Capacity != 1 {
		t.Errorf("legacy record read as %+v, want Capacity 1", trials[0].Result)
	}
}

// A CSV sink that never saw a trial leaves its writer untouched; reading
// an empty stream yields no rows.
func TestCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	cw := sink.NewCSV(&buf)
	if err := cw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty CSV sink wrote %q", buf.String())
	}
	rows, err := sink.ReadCSV(&buf)
	if err != nil || len(rows) != 0 {
		t.Errorf("ReadCSV on empty input: rows=%v err=%v", rows, err)
	}
}

// Tee writes to every writer in order and propagates the first error.
func TestTee(t *testing.T) {
	var a, b bytes.Buffer
	job := dispersion.Job{Process: "uniform", Spec: "path:16", Trials: 3}
	run(t, job, sink.NewJSONL(&a), sink.NewJSONL(&b))
	if a.String() != b.String() {
		t.Error("teed JSONL writers diverged")
	}
	got, err := sink.ReadJSONL(&a)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(got) != 3 {
		t.Errorf("got %d trials, want 3", len(got))
	}
}

// JSONL serializes during Write and keeps nothing, so a file written
// while the engine recycles Results is byte-identical to one written
// without recycling.
func TestJSONLUnderReuseResults(t *testing.T) {
	for _, process := range []string{"parallel", "ct-uniform", "capacity"} {
		job := dispersion.Job{Process: process, Spec: "cycle:24", Trials: 40}
		var plain, reused bytes.Buffer
		for _, c := range []struct {
			reuse bool
			buf   *bytes.Buffer
		}{{false, &plain}, {true, &reused}} {
			eng := dispersion.Engine{Seed: 11, Experiment: 5, Workers: 3, ReuseResults: c.reuse}
			if err := eng.Run(context.Background(), job, sink.Tee(sink.NewJSONL(c.buf))); err != nil {
				t.Fatalf("%s: Engine.Run: %v", process, err)
			}
		}
		if plain.Len() == 0 || !bytes.Equal(plain.Bytes(), reused.Bytes()) {
			t.Errorf("%s: JSONL under ReuseResults differs (%d vs %d bytes)", process, reused.Len(), plain.Len())
		}
	}
}
