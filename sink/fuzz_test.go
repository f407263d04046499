package sink

import (
	"bytes"
	"context"
	"encoding/csv"
	"math"
	"strconv"
	"testing"

	"dispersion"
)

// writeRows writes rows under the full header, each field formatted as
// CSV.Write formats it.
func writeRows(rows []Row) ([]byte, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(csvColumns); err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := w.Write([]string{
			strconv.Itoa(r.Trial),
			r.Process,
			strconv.FormatBool(r.Continuous),
			formatFloat(r.Makespan),
			strconv.FormatInt(r.Dispersion, 10),
			strconv.FormatInt(r.TotalSteps, 10),
			formatFloat(r.Time),
			strconv.FormatBool(r.Truncated),
			strconv.Itoa(r.Unsettled),
			strconv.Itoa(r.Capacity),
		}); err != nil {
			return nil, err
		}
	}
	w.Flush()
	return buf.Bytes(), w.Error()
}

// sameRow compares two rows field by field, floats bit for bit, so NaN
// and −0 count as read back only when they are.
func sameRow(a, b Row) bool {
	return a.Trial == b.Trial && a.Process == b.Process && a.Continuous == b.Continuous &&
		math.Float64bits(a.Makespan) == math.Float64bits(b.Makespan) &&
		a.Dispersion == b.Dispersion && a.TotalSteps == b.TotalSteps &&
		math.Float64bits(a.Time) == math.Float64bits(b.Time) &&
		a.Truncated == b.Truncated && a.Unsettled == b.Unsettled && a.Capacity == b.Capacity
}

// FuzzReadCSV fuzzes ReadCSV, the decoder of the files the CSV sink
// writes. It must not panic on any input, and the rows of an input it
// accepts, written back under the full header, must read back as the same
// rows.
func FuzzReadCSV(f *testing.F) {
	var written bytes.Buffer
	cw := NewCSV(&written)
	eng := dispersion.Engine{Seed: 3, Experiment: 9}
	for _, job := range []dispersion.Job{
		{Process: "capacity", Spec: "cycle:9", Trials: 2},
		{Process: "ct-uniform", Spec: "complete:6", Trials: 2},
		{Process: "sequential", Spec: "cycle:9", Trials: 1, Options: []dispersion.Option{dispersion.WithMaxSteps(5)}},
	} {
		if err := eng.Run(context.Background(), job, cw.Write); err != nil {
			f.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		written.String(),
		"trial,process,continuous,makespan,dispersion,total_steps,time,truncated,unsettled\n" +
			"0,parallel,false,188,188,1122,0,false,0\n" +
			"1,sequential,false,95,95,431,0,false,0\n",
		"trial,process,continuous,makespan,dispersion,total_steps,time,truncated,unsettled,capacity\n",
		"",
		// Fields the sink never writes but ReadCSV accepts: a quoted
		// process with a comma, a quote and a line break, NaN, −0, ±Inf,
		// signs and leading zeros, and the other spellings of a bool.
		"trial,process,continuous,makespan,dispersion,total_steps,time,truncated,unsettled,capacity\n" +
			"+007,\"a,\"\"b\"\"\nc\",T,NaN,-0,0,-0,FALSE,0,3\n" +
			"-1, x ,1,+Inf,9223372036854775807,-9223372036854775808,-inf,t,-5,+0\n" +
			"2,,0,1e308,0,0,4.9e-324,0,0,1\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := writeRows(rows)
		if err != nil {
			t.Fatalf("writing %d rows back: %v", len(rows), err)
		}
		reread, err := ReadCSV(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("rows written back do not read: %v\n%q", err, again)
		}
		if len(reread) != len(rows) {
			t.Fatalf("read back %d rows, wrote %d", len(reread), len(rows))
		}
		for i := range rows {
			if !sameRow(reread[i], rows[i]) {
				t.Fatalf("row %d read back as %+v, wrote %+v", i, reread[i], rows[i])
			}
		}
	})
}
