package agg

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSummaryJSON fuzzes Summary.UnmarshalJSON, the decoder the shard
// coordinator runs on shard replies and on its write-ahead log. A summary
// it accepts must merge into a fresh summary of the same layout and
// marshal without panicking, and the marshalled bytes must decode again.
// Marshal may still return an error for a value JSON cannot hold, such as
// a derived quantile or mean beyond the float64 range.
func FuzzSummaryJSON(f *testing.F) {
	s := NewSummary()
	s.Add(fakeResult("sequential", 10, 25, false))
	s.Add(fakeResult("sequential", 0, 3, true))
	valid, err := json.Marshal(s)
	if err != nil {
		f.Fatal(err)
	}
	q, err := json.Marshal(s.Makespan.Quantiles)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// A sketch claiming five values and holding none once decoded, merged
	// and then panicked in the marshal.
	f.Add(bytes.Replace(valid, q, []byte(`{"alpha":0.01,"n":5,"keys":[],"counts":[]}`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Summary
		if json.Unmarshal(data, &got) != nil {
			return
		}
		fresh := got.cfg.NewSummary()
		if fresh.Merge(&got) != nil {
			return
		}
		out, err := json.Marshal(fresh)
		if err != nil {
			return
		}
		var again Summary
		if err := json.Unmarshal(out, &again); err != nil {
			t.Fatalf("marshalled summary does not decode: %v\n%s", err, out)
		}
	})
}
