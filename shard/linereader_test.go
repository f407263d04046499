package shard

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"dispersion"
	"dispersion/sink"
)

// Lines up to the reader's size are returned from its buffer and longer
// ones from the line buffer; either way a Result decoded from a line
// must not alias that memory, because the next line overwrites it. Each
// line is overwritten after decoding, then its Result is compared.
func TestLineReaderResultsDoNotAliasBuffers(t *testing.T) {
	traj := make([]int32, lineReaderSize) // ~2 bytes a step: well over the reader
	for i := range traj {
		traj[i] = int32(i % 7)
	}
	small := &dispersion.Result{Process: "sequential", Dispersion: 9, TotalSteps: 12,
		Steps: []int64{0, 4, 8}, SettledAt: []int32{0, 1, 2}, SettleOrder: []int32{0, 1, 2}}
	big := &dispersion.Result{Process: "sequential", Dispersion: 7, TotalSteps: int64(len(traj)),
		Steps: []int64{0, int64(len(traj))}, SettledAt: []int32{0, 6}, Trajectories: [][]int32{{0}, traj}}
	want := []sink.Record{{Trial: 0, Result: small}, {Trial: 1, Result: big}, {Trial: 2, Result: small}, {Trial: 3, Result: big}}
	var stream []byte
	for _, rec := range want {
		var err error
		if stream, err = sink.AppendRecord(stream, rec); err != nil {
			t.Fatal(err)
		}
		stream = append(stream, '\n')
	}

	lr := lineReaders.Get().(*lineReader)
	defer lr.release()
	lr.br.Reset(bytes.NewReader(stream))
	for i, w := range want {
		line, err := lr.line()
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if long := len(line) > lineReaderSize; long != (w.Result == big) {
			t.Fatalf("line %d is %d bytes: the records do not straddle the reader's %d", i, len(line), lineReaderSize)
		}
		var got sink.Record
		if err := got.UnmarshalJSON(bytes.TrimSpace(line)); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		for j := range line {
			line[j] = 'x'
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("line %d decoded to %+v after its buffer was overwritten, want %+v", i, got.Result, w.Result)
		}
	}
	if line, err := lr.line(); err != io.EOF || len(line) != 0 {
		t.Fatalf("after the last line: %q, %v; want io.EOF", line, err)
	}
}
