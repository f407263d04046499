package agg

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzSummaryJSON fuzzes Summary.UnmarshalJSON, the decoder the shard
// coordinator runs on shard replies and on its write-ahead log.
//
// The decoder must agree with its encoding/json path: for any input both
// fail with the same error, or both give summaries that marshal to the
// same bytes. A summary it accepts must be one Add and Merge can produce:
// the makespan histogram's width is its initial width doubled zero or
// more times, every sketch holds one value per trial, and the columns
// share one layout. So it must merge into a fresh summary of that layout,
// and the merge must marshal without panicking to bytes that decode
// again. Marshal may still return an error for a value JSON cannot hold,
// such as a derived variance beyond the float64 range.
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
	// The indented form sink.WriteSummary writes.
	indented, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(indented, '\n'))
	head := []byte(`{"process":"sequential","capacity":1,"trials":2,`)
	if !bytes.HasPrefix(valid, head) {
		f.Fatalf("seed summary starts %.40s", valid)
	}
	for _, swap := range [][2]string{
		{string(head), `{"trials":2,"capacity":1,"process":"sequential",`},                        // reordered
		{string(head), `{"extra":[1,{"a":null}],"process":"sequential","capacity":1,"trials":2,`}, // unknown
		{string(head), `{"process":"x","process":"sequential","capacity":1,"trials":2,`},          // duplicate
		{string(head), `{"PROCESS":"sequential","Capacity":1,"Trials":2,`},                        // case-variant
		{string(head), `{"process":"seq\u0075ential","capacity":1,"trials":2,`},                   // escaped
		{`"trials":2`, `"trials":1e1`},
		{`"trials":2`, `"trials":1000000000000000000`},
		{`"trials":2`, `"trials":9223372036854775807`},
		{`"trials":2`, `"trials":-9223372036854775808`},
		{`"trials":2`, `"trials":9223372036854775808`},
		{`{"moments":{"n":2,`, `{"moments":{"n":1e1,`},
		{`"alpha":0.01`, `"alpha":.5`},
		{`"alpha":0.01`, `"alpha":1.`},
		{`"alpha":0.01`, `"alpha":+1`},
		{`"alpha":0.01`, `"alpha":0x1p-2`},
		{`"alpha":0.01`, `"alpha":Infinity`},
		{`"width":1,`, `"width":1.5,`},
	} {
		if !bytes.Contains(valid, []byte(swap[0])) {
			f.Fatalf("seed summary lacks %s", swap[0])
		}
		f.Add(bytes.Replace(valid, []byte(swap[0]), []byte(swap[1]), 1))
	}
	one := oneTrial(f)
	// The one-trial summary with its makespan sketch built from a value at
	// the top of the float64 range instead.
	oneQ, err := json.Marshal(fold(fakeResult("sequential", 3, 5, false)).Makespan.Quantiles)
	if err != nil || !bytes.Contains(one, oneQ) {
		f.Fatalf("one-trial summary lacks its makespan sketch %s (%v)", oneQ, err)
	}
	for _, x := range hugeValues {
		q := NewQuantiles(0)
		q.Add(x)
		b, err := json.Marshal(q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Replace(one, oneQ, b, 1))
	}
	for _, swap := range unreachable {
		f.Add(bytes.Replace(one, []byte(swap[0]), []byte(swap[1]), 1))
	}
	// A one-trial continuous-time summary whose time's square passes the
	// float64 range, so its sum of squares holds the exact square.
	huge := fakeResult("ct-uniform", 0, 5, false)
	huge.Continuous, huge.Time = true, math.MaxFloat64
	hugeB, err := json.Marshal(fold(huge))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hugeB)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, ref Summary
		gotErr, refErr := got.UnmarshalJSON(data), ref.decodeJSON(data)
		if (gotErr == nil) != (refErr == nil) || gotErr != nil && gotErr.Error() != refErr.Error() {
			t.Fatalf("decoder error %v, encoding/json path error %v", gotErr, refErr)
		}
		if gotErr != nil {
			return
		}
		gotB, gotMErr := json.Marshal(&got)
		refB, refMErr := json.Marshal(&ref)
		if (gotMErr == nil) != (refMErr == nil) || !bytes.Equal(gotB, refB) {
			t.Fatalf("decoders disagree: %s (%v) and %s (%v)", gotB, gotMErr, refB, refMErr)
		}
		h := got.Makespan.Histogram
		w := h.w0
		for w < h.width {
			w *= 2
		}
		if w != h.width {
			t.Fatalf("accepted histogram width %v on initial width %v", h.width, h.w0)
		}
		for _, c := range []*Column{got.Makespan, got.TotalSteps} {
			if c.Moments.n != got.Trials || c.Quantiles.n != got.Trials || c.Histogram != nil && c.Histogram.n != got.Trials {
				t.Fatalf("accepted a summary of %d trials whose sketches hold %d, %d values", got.Trials, c.Moments.n, c.Quantiles.n)
			}
		}
		fresh := got.cfg.NewSummary()
		if err := fresh.Merge(&got); err != nil {
			t.Fatalf("accepted summary does not merge into its own layout: %v", err)
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
