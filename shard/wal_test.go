package shard

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dispersion/agg"
)

// replayBytes writes data to the log file at path and replays it as a
// RunSummary log, counting the records it hands to the check.
func replayBytes(t *testing.T, path string, data []byte) (good int64, records int, err error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	good, err = replay(f, func(summaryRecord) error { records++; return nil })
	return good, records, err
}

// FuzzWALReplay fuzzes replay, which reads a coordinator's write-ahead
// log back from disk after a crash, over arbitrary log bytes. replay must
// not panic. When it succeeds, the durable prefix it reports must end at
// a line break (or be empty) within the input, replaying that prefix
// alone must give the same prefix and record count, and one more intact
// record appended to the prefix must extend both by exactly that record.
func FuzzWALReplay(f *testing.F) {
	summary, err := json.Marshal(agg.NewSummary())
	if err != nil {
		f.Fatal(err)
	}
	line := func(shard int) []byte {
		b, err := appendSummaryRecord(nil, summaryRecord{Shard: shard, First: 10 * shard, Trials: 10, Summary: summary})
		if err != nil {
			f.Fatal(err)
		}
		return append(b, '\n')
	}
	intact := append(line(0), line(1)...)
	f.Add(intact)
	f.Add(append(bytes.Clone(intact), line(2)[:40]...))           // torn final record
	f.Add(append(bytes.Clone(intact), `{"shard":2,"fir`+"\n"...)) // corrupt final line
	f.Add(append(append([]byte("\n  \n"), line(0)...), "\r\n\n"...))
	next := line(3)
	// Inputs run one at a time in each fuzz process, so they can share
	// one log file.
	path := filepath.Join(f.TempDir(), "log")
	f.Fuzz(func(t *testing.T, data []byte) {
		good, records, err := replayBytes(t, path, data)
		if err != nil {
			return
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("durable prefix %d outside the %d-byte log", good, len(data))
		}
		if good > 0 && data[good-1] != '\n' {
			t.Fatalf("durable prefix %d does not end at a line break", good)
		}
		prefix := data[:good]
		if g, n, err := replayBytes(t, path, prefix); err != nil || g != good || n != records {
			t.Fatalf("replaying the durable prefix: (%d, %d, %v), want (%d, %d, nil)", g, n, err, good, records)
		}
		extended := append(bytes.Clone(prefix), next...)
		want := good + int64(len(next))
		if g, n, err := replayBytes(t, path, extended); err != nil || g != want || n != records+1 {
			t.Fatalf("replaying the prefix plus one record: (%d, %d, %v), want (%d, %d, nil)", g, n, err, want, records+1)
		}
	})
}
