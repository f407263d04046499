package sink

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"

	"dispersion"
)

// Writer consumes one trial at a time, in the strict trial order
// Engine.Run delivers them.
type Writer interface {
	// Write records one trial. Under Engine.ReuseResults the engine
	// recycles t.Result once the callback returns, so an implementation
	// that keeps the Result past Write must copy it. JSONL, CSV and
	// Aggregator serialize or fold the trial during Write and keep
	// nothing, so all three are safe under ReuseResults.
	Write(t dispersion.Trial) error
}

// Tee adapts any number of writers into a single Engine.Run callback: each
// trial is written to every writer in argument order, stopping at (and
// returning) the first error, which also aborts the run.
func Tee(ws ...Writer) func(dispersion.Trial) error {
	return func(t dispersion.Trial) error {
		for _, w := range ws {
			if err := w.Write(t); err != nil {
				return err
			}
		}
		return nil
	}
}

// Record is the wire form of one trial in the JSONL format — and, line by
// line, the NDJSON schema of the dispersion server's results stream.
// AppendRecord encodes it and UnmarshalJSON decodes it without
// reflection; json.Marshal and json.Unmarshal give the same bytes and
// values.
type Record struct {
	// Trial is the trial index in [0, Trials).
	Trial int `json:"trial"`
	// Result is the trial's full outcome.
	Result *dispersion.Result `json:"result"`
}

// JSONL writes one Record per line. It is the lossless sink: ReadJSONL
// reproduces the written trials exactly.
type JSONL struct {
	w    io.Writer
	line []byte // reused across Writes
	err  error  // the first failed write; later Writes return it
}

// NewJSONL returns a JSONL sink writing to w. Every Write emits one
// complete line in a single w.Write call; no flushing is needed beyond
// what w itself buffers.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w}
}

// Write appends one trial as a JSON line: the bytes json.Encoder.Encode
// writes for its Record.
func (s *JSONL) Write(t dispersion.Trial) error {
	if s.err != nil {
		return s.err
	}
	line, err := AppendRecord(s.line[:0], Record{Trial: t.Index, Result: t.Result})
	if err != nil {
		return err
	}
	s.line = append(line, '\n')
	_, s.err = s.w.Write(s.line)
	return s.err
}

// ReadJSONL reads back a JSONL stream written by a JSONL sink (or by the
// dispersion server's results endpoint), returning the trials in file
// order. Lines have no size limit: records carrying full trajectories
// (WithRecord) can grow arbitrarily large. Records written before the
// Capacity field existed read back with Capacity 1, the per-vertex
// capacity every pre-capacity process ran under (matching ReadCSV).
func ReadJSONL(r io.Reader) ([]dispersion.Trial, error) {
	var out []dispersion.Trial
	br := bufio.NewReaderSize(r, 64*1024)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return nil, rerr
		}
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			var rec Record
			if err := rec.UnmarshalJSON(trimmed); err != nil {
				return nil, fmt.Errorf("sink: bad JSONL record %d: %w", len(out), err)
			}
			if rec.Result != nil && rec.Result.Capacity == 0 {
				rec.Result.Capacity = 1
			}
			out = append(out, dispersion.Trial{Index: rec.Trial, Result: rec.Result})
		}
		if rerr == io.EOF {
			return out, nil
		}
	}
}

// csvColumns is the fixed CSV header; Row fields mirror it in order.
var csvColumns = []string{
	"trial", "process", "continuous", "makespan",
	"dispersion", "total_steps", "time", "truncated", "unsettled", "capacity",
}

// Row is the scalar per-trial summary the CSV sink writes: everything a
// statistics pass over many trials needs, with the slice-valued Result
// fields dropped.
type Row struct {
	// Trial is the trial index in [0, Trials).
	Trial int
	// Process is the canonical process name from the Result.
	Process string
	// Continuous mirrors Result.Continuous.
	Continuous bool
	// Makespan is Result.Makespan(): the dispersion time on the process's
	// natural scale.
	Makespan float64
	// Dispersion mirrors Result.Dispersion.
	Dispersion int64
	// TotalSteps mirrors Result.TotalSteps.
	TotalSteps int64
	// Time mirrors Result.Time (zero for discrete processes).
	Time float64
	// Truncated mirrors Result.Truncated.
	Truncated bool
	// Unsettled is Result.Unsettled(): particles left unsettled, nonzero
	// only for truncated runs.
	Unsettled int
	// Capacity mirrors Result.Capacity: the per-vertex capacity the run
	// executed under (1 for the unit-capacity processes).
	Capacity int
}

// CSV writes one Row per trial under a fixed header. Call Flush after the
// run to force buffered rows out and observe any deferred write error.
type CSV struct {
	w          *csv.Writer
	headerDone bool
}

// NewCSV returns a CSV sink writing to w. The header row is emitted by
// the first Write, so an aborted zero-trial run leaves w untouched.
func NewCSV(w io.Writer) *CSV {
	return &CSV{w: csv.NewWriter(w)}
}

// Write appends one trial's scalar summary row.
func (s *CSV) Write(t dispersion.Trial) error {
	if !s.headerDone {
		if err := s.w.Write(csvColumns); err != nil {
			return err
		}
		s.headerDone = true
	}
	res := t.Result
	return s.w.Write([]string{
		strconv.Itoa(t.Index),
		res.Process,
		strconv.FormatBool(res.Continuous),
		formatFloat(res.Makespan()),
		strconv.FormatInt(res.Dispersion, 10),
		strconv.FormatInt(res.TotalSteps, 10),
		formatFloat(res.Time),
		strconv.FormatBool(res.Truncated),
		strconv.Itoa(res.Unsettled()),
		strconv.Itoa(res.Capacity),
	})
}

// Flush writes any buffered rows and returns the first error encountered
// by any Write or by the flush itself.
func (s *CSV) Flush() error {
	s.w.Flush()
	return s.w.Error()
}

// formatFloat renders a float with the shortest representation that
// round-trips exactly, so ReadCSV recovers the written value bit for bit.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ReadCSV reads back a file written by a CSV sink, returning the rows in
// file order. It validates the header. Files written before the capacity
// column existed are still accepted: their rows read back with Capacity 1,
// the per-vertex capacity every pre-capacity process ran under.
func ReadCSV(r io.Reader) ([]Row, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // header length decides; parseRow validates rows
	records, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, nil
	}
	legacy := slices.Equal(records[0], csvColumns[:len(csvColumns)-1])
	if !legacy && !slices.Equal(records[0], csvColumns) {
		return nil, fmt.Errorf("sink: unexpected CSV header %q", records[0])
	}
	out := make([]Row, 0, len(records)-1)
	for i, rec := range records[1:] {
		row, err := parseRow(rec, legacy)
		if err != nil {
			return nil, fmt.Errorf("sink: bad CSV row %d: %w", i, err)
		}
		out = append(out, row)
	}
	return out, nil
}

func parseRow(rec []string, legacy bool) (Row, error) {
	want := len(csvColumns)
	if legacy {
		want--
	}
	if len(rec) != want {
		return Row{}, fmt.Errorf("want %d fields, got %d", want, len(rec))
	}
	var (
		row Row
		err error
	)
	if row.Trial, err = strconv.Atoi(rec[0]); err != nil {
		return Row{}, err
	}
	row.Process = rec[1]
	if row.Continuous, err = strconv.ParseBool(rec[2]); err != nil {
		return Row{}, err
	}
	if row.Makespan, err = strconv.ParseFloat(rec[3], 64); err != nil {
		return Row{}, err
	}
	if row.Dispersion, err = strconv.ParseInt(rec[4], 10, 64); err != nil {
		return Row{}, err
	}
	if row.TotalSteps, err = strconv.ParseInt(rec[5], 10, 64); err != nil {
		return Row{}, err
	}
	if row.Time, err = strconv.ParseFloat(rec[6], 64); err != nil {
		return Row{}, err
	}
	if row.Truncated, err = strconv.ParseBool(rec[7]); err != nil {
		return Row{}, err
	}
	if row.Unsettled, err = strconv.Atoi(rec[8]); err != nil {
		return Row{}, err
	}
	if legacy {
		row.Capacity = 1
		return row, nil
	}
	if row.Capacity, err = strconv.Atoi(rec[9]); err != nil {
		return Row{}, err
	}
	return row, nil
}
