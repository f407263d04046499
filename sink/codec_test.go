package sink

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"dispersion"
)

// engineRecords runs job and returns its trials as Records.
func engineRecords(t testing.TB, job dispersion.Job) []Record {
	t.Helper()
	var out []Record
	eng := dispersion.Engine{Seed: 3, Experiment: 9}
	err := eng.Run(context.Background(), job, func(tr dispersion.Trial) error {
		out = append(out, Record{Trial: tr.Index, Result: tr.Result})
		return nil
	})
	if err != nil {
		t.Fatalf("%s on %s: %v", job.Process, job.Spec, err)
	}
	return out
}

// codecRecords covers every registered process, plain and lazy, plus
// recorded trajectories, truncated runs, capacity vectors and hand-made
// edge cases.
func codecRecords(t testing.TB) []Record {
	t.Helper()
	var recs []Record
	for _, p := range dispersion.Processes() {
		for _, opts := range [][]dispersion.Option{nil, {dispersion.WithLazy()}} {
			recs = append(recs, engineRecords(t, dispersion.Job{Process: p, Spec: "cycle:9", Trials: 2, Options: opts})...)
		}
	}
	for _, job := range []dispersion.Job{
		{Process: "parallel", Spec: "torus:3x4", Trials: 2, Options: []dispersion.Option{dispersion.WithRecord()}},
		{Process: "ct-uniform", Spec: "path:6", Trials: 2, Options: []dispersion.Option{dispersion.WithRecord(), dispersion.WithLazy()}},
		{Process: "sequential", Spec: "path:40", Trials: 2, Options: []dispersion.Option{dispersion.WithMaxSteps(30)}},
		{Process: "ct-sequential", Spec: "path:40", Trials: 2, Options: []dispersion.Option{dispersion.WithMaxSteps(30)}},
		{Process: "capacity", Spec: "complete:6", Trials: 2, Options: []dispersion.Option{dispersion.WithCapacities([]int{1, 3, 1, 2, 1, 2})}},
	} {
		recs = append(recs, engineRecords(t, job)...)
	}
	var truncated bool
	for _, r := range recs {
		truncated = truncated || r.Result.Truncated
	}
	if !truncated {
		t.Fatal("no truncated run among the engine records")
	}
	return append(recs,
		Record{Trial: 0},
		Record{Trial: -1, Result: &dispersion.Result{}},
		Record{Trial: math.MaxInt, Result: &dispersion.Result{
			Steps: []int64{}, SettledAt: []int32{}, SettleOrder: []int32{}, SettleClock: []int64{},
			Trajectories: [][]int32{}, SettleTimes: []float64{},
		}},
		Record{Trial: math.MinInt, Result: &dispersion.Result{
			Process:      "ct-uniform",
			Continuous:   true,
			Dispersion:   math.MaxInt64,
			TotalSteps:   math.MinInt64,
			Steps:        []int64{0, -7, math.MaxInt64},
			SettledAt:    []int32{math.MinInt32, -1, math.MaxInt32},
			SettleOrder:  []int32{2, 0, 1},
			Trajectories: [][]int32{nil, {}, {0, 1}},
			Capacity:     -3,
			Time:         math.Copysign(0, -1),
			SettleTimes: []float64{
				5e-324, 1e-7, 9.99e-7, 1e-6, 1.5, 123456789.125, 1e20, 1e21, 1.7976931348623157e308,
				-1e-7, -1e21, -2.5, math.Copysign(0, -1), 0.1, 1.0 / 3,
			},
		}},
		Record{Trial: 4, Result: &dispersion.Result{
			Process: "a\"b\\c/<d>&e\x00\x01\x1f\b\f\n\r\t\x7f é\u2028\u2029\U0001F600\xff\xc3(",
			Time:    1e-300,
		}},
		Record{Trial: 5, Result: everyField(t)},
	)
}

// everyField returns a Result with every field set to a non-zero value,
// filled by reflection: a field added to dispersion.Result shows up in
// encoding/json's line, so TestCodecMatchesEncodingJSON fails until the
// codec writes it too. A field of a kind this does not know fails here.
func everyField(t testing.TB) *dispersion.Result {
	t.Helper()
	res := new(dispersion.Result)
	v := reflect.ValueOf(res).Elem()
	for i := range v.NumField() {
		f := v.Field(i)
		if err := fill(f); err != nil {
			t.Fatalf("dispersion.Result.%s: %v", v.Type().Field(i).Name, err)
		}
	}
	return res
}

func fill(f reflect.Value) error {
	switch f.Kind() {
	case reflect.String:
		f.SetString("x")
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Int, reflect.Int32, reflect.Int64:
		f.SetInt(-5)
	case reflect.Float64:
		f.SetFloat(2.75)
	case reflect.Slice:
		s := reflect.MakeSlice(f.Type(), 2, 2)
		for i := range 2 {
			if err := fill(s.Index(i)); err != nil {
				return err
			}
		}
		f.Set(s)
	default:
		return &json.UnsupportedTypeError{Type: f.Type()}
	}
	return nil
}

// The codec writes exactly json.Encoder's bytes, reads them back to the
// same value without falling back to encoding/json, and agrees with
// json.Unmarshal on them.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	for i, rec := range codecRecords(t) {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(rec); err != nil {
			t.Fatalf("record %d: json: %v", i, err)
		}
		var got bytes.Buffer
		if err := NewJSONL(&got).Write(dispersion.Trial{Index: rec.Trial, Result: rec.Result}); err != nil {
			t.Fatalf("record %d: JSONL.Write: %v", i, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("record %d: codec line differs from encoding/json\n got %s\nwant %s", i, got.Bytes(), want.Bytes())
		}
		line := bytes.TrimSuffix(got.Bytes(), []byte("\n"))
		// Only a string escape takes a record or a line off the fast path.
		if rec.Result != nil && !plain(rec.Result) && !bytes.ContainsRune(line, '\\') {
			t.Errorf("record %d: plain record fell back to json.Marshal: %s", i, line)
		}
		if _, _, ok := parseCanonical(line); !ok && !bytes.ContainsRune(line, '\\') {
			t.Errorf("record %d: canonical line fell back to encoding/json: %s", i, line)
		}
		var back Record
		if err := back.UnmarshalJSON(line); err != nil {
			t.Fatalf("record %d: UnmarshalJSON: %v", i, err)
		}
		// Invalid UTF-8 is written as U+FFFD, so only valid strings round-trip.
		if valid := rec.Result == nil || utf8.ValidString(rec.Result.Process); valid &&
			(!reflect.DeepEqual(back, rec) || !sameFloatSigns(back, rec)) {
			t.Errorf("record %d: round trip diverged\n got %+v\nwant %+v", i, back.Result, rec.Result)
		}
		var twin plainRecord
		if err := json.Unmarshal(line, &twin); err != nil || !reflect.DeepEqual(Record(twin), back) {
			t.Errorf("record %d: encoding/json reads %+v (err %v), codec reads %+v", i, twin.Result, err, back.Result)
		}
	}
}

// sameFloatSigns checks what DeepEqual cannot: negative zeros survive.
func sameFloatSigns(a, b Record) bool {
	if a.Result == nil || b.Result == nil {
		return a.Result == b.Result
	}
	if math.Signbit(a.Result.Time) != math.Signbit(b.Result.Time) {
		return false
	}
	for i, x := range a.Result.SettleTimes {
		if math.Signbit(x) != math.Signbit(b.Result.SettleTimes[i]) {
			return false
		}
	}
	return true
}

// Like json.Encoder, the codec rejects NaN and infinite floats with the
// same error and writes nothing.
func TestCodecRejectsNonFiniteFloats(t *testing.T) {
	for _, res := range []*dispersion.Result{
		{Time: math.NaN()},
		{Time: math.Inf(-1), SettleTimes: []float64{math.NaN()}},
		{SettleTimes: []float64{1, math.Inf(1)}},
	} {
		rec := Record{Trial: 1, Result: res}
		_, want := json.Marshal(rec)
		got, err := AppendRecord([]byte("x"), rec)
		if err == nil || want == nil || err.Error() != want.Error() || string(got) != "x" {
			t.Errorf("%+v: AppendRecord = %q, %v; json.Marshal error %v", res, got, err, want)
		}
		var buf bytes.Buffer
		if err := NewJSONL(&buf).Write(dispersion.Trial{Index: 1, Result: res}); err == nil || buf.Len() != 0 {
			t.Errorf("%+v: JSONL.Write wrote %q, error %v", res, buf.Bytes(), err)
		}
	}
}

// Lines the encoding/json-based sink wrote, kept verbatim in testdata,
// decode to what encoding/json reads from them and re-encode to the
// same bytes; ReadJSONL reads them with its pre-capacity default.
func TestCodecReadsEncodingJSONLines(t *testing.T) {
	data, err := os.ReadFile("testdata/encodingjson.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	trials, err := ReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(trials) != len(lines) {
		t.Fatalf("read %d trials from %d lines", len(trials), len(lines))
	}
	for i, line := range lines {
		var twin plainRecord
		if err := json.Unmarshal(line, &twin); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		var rec Record
		if err := rec.UnmarshalJSON(line); err != nil || !reflect.DeepEqual(rec, Record(twin)) {
			t.Errorf("line %d: codec read %+v (err %v), encoding/json %+v", i, rec.Result, err, twin.Result)
		}
		want := line
		if bytes.Contains(line, []byte(`\ufffd`)) {
			// Invalid UTF-8 was written as U+FFFD, which reads back and
			// re-encodes as itself.
			want, _ = json.Marshal(twin)
		}
		if again, err := AppendRecord(nil, rec); err != nil || !bytes.Equal(again, want) {
			t.Errorf("line %d: re-encoded as\n%s\nwant\n%s", i, again, want)
		}
		if twin.Result != nil && twin.Result.Capacity == 0 {
			twin.Result.Capacity = 1
		}
		if !reflect.DeepEqual(trials[i], dispersion.Trial{Index: twin.Trial, Result: twin.Result}) {
			t.Errorf("line %d: ReadJSONL read %+v", i, trials[i].Result)
		}
	}
}

// FuzzDecodeRecord checks that for any input the decoder fails exactly
// when json.Unmarshal into the method-less twin fails, and otherwise
// yields the same value, nil versus empty slices included.
func FuzzDecodeRecord(f *testing.F) {
	canonical := func(rec Record) string {
		b, err := AppendRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	line := canonical(Record{Trial: 7, Result: &dispersion.Result{
		Process: "parallel", Dispersion: 3, TotalSteps: 5, Steps: []int64{3, 2, 0},
		SettledAt: []int32{1, 2, 0}, SettleOrder: []int32{2, 1, 0}, SettleClock: []int64{0, 2, 3},
		Trajectories: [][]int32{{0, 1}, nil, {}}, Capacity: 1, Time: 2.5, SettleTimes: []float64{1e-9, 0.5},
	}})
	for _, seed := range []string{
		line,
		line + "\n",
		" \t\r\n" + line + " \n",
		canonical(Record{Trial: 1}),
		canonical(Record{Result: &dispersion.Result{}}),
		canonical(Record{Result: &dispersion.Result{Steps: []int64{}, SettleTimes: []float64{}}}),
		`{"result":{"Process":"parallel","Dispersion":7},"trial":2}`,
		`{"TRIAL":3,"Result":{"process":"x","DISPERSION":1}}`,
		`{"trial":0,"result":{"Process":"parallel","Dispersion":7,"TotalSteps":21}}`,
		`{"trial":1,"extra":[1,{"a":null}],"result":null}`,
		`{ "trial" : 1 , "result" : null }`,
		`{"trial":null,"result":null}`,
		`{"trial":1,"result":{"Process":null,"Steps":null,"Time":null,"Capacity":null}}`,
		`null`,
		`{"trial":9223372036854775807,"result":null}`,
		`{"trial":9223372036854775808,"result":null}`,
		`{"trial":-9223372036854775808,"result":null}`,
		`{"trial":-9223372036854775809,"result":null}`,
		strings.Replace(line, `"SettledAt":[1,`, `"SettledAt":[2147483648,`, 1),
		strings.Replace(line, `"SettledAt":[1,`, `"SettledAt":[-2147483648,`, 1),
		strings.Replace(line, `"Dispersion":3`, `"Dispersion":3.0`, 1),
		strings.Replace(line, `"Dispersion":3`, `"Dispersion":3e0`, 1),
		strings.Replace(line, `"Dispersion":3`, `"Dispersion":-0`, 1),
		strings.Replace(line, `"Dispersion":3`, `"Dispersion":03`, 1),
		strings.Replace(line, `"Time":2.5`, `"Time":1.`, 1),
		strings.Replace(line, `"Time":2.5`, `"Time":02.5`, 1),
		strings.Replace(line, `"Time":2.5`, `"Time":-0`, 1),
		strings.Replace(line, `"Time":2.5`, `"Time":1E+400`, 1),
		strings.Replace(line, `"Time":2.5`, `"Time":.5`, 1),
		strings.Replace(line, `"Process":"parallel"`, `"Process":"parallel\n"`, 1),
		strings.Replace(line, `"Process":"parallel"`, `"Process":"é"`, 1),
		strings.Replace(line, `"Continuous":false`, `"Continuous":0`, 1),
		strings.Replace(line, `"Steps":[3,2,0]`, `"Steps":[3,,0]`, 1),
		strings.Replace(line, `"Steps":[3,2,0]`, `"Steps":[3,2,0,]`, 1),
		strings.Replace(line, `"Steps":[3,2,0]`, `"Steps":[,,,,,,,,]`, 1),
		line + "x",
		line + "{}",
		line[:len(line)-3],
		"",
		"{",
		strings.Replace(line, `"Steps":[3,2,0]`, `"Steps":[9223372036854775807,-9223372036854775808,0]`, 1),
		strings.Replace(line, `"Steps":[3,2,0]`, `"Steps":[3,9223372036854775808,0]`, 1),
		strings.Replace(line, `"Steps":[3,2,0]`, `"Steps":[3,-9223372036854775809,0]`, 1),
		strings.Replace(line, `"Steps":[3,2,0]`, `"Steps":[3,2,18446744073709551616]`, 1),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Record
		gotErr := got.UnmarshalJSON(data)
		var want plainRecord
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decoder error %v, encoding/json error %v", gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, Record(want)) {
			t.Fatalf("decoder read %+v, encoding/json read %+v", got.Result, want.Result)
		}
	})
}

// benchResults is a complete:256 stream op's worth of results.
func benchResults(b *testing.B) []Record {
	return engineRecords(b, dispersion.Job{Process: "sequential", Spec: "complete:256", Trials: 16})
}

func benchLines(b *testing.B) [][]byte {
	var lines [][]byte
	for _, rec := range benchResults(b) {
		line, err := json.Marshal(rec)
		if err != nil {
			b.Fatal(err)
		}
		lines = append(lines, line)
	}
	return lines
}

func BenchmarkEncodeRecord(b *testing.B) {
	recs := benchResults(b)
	w := NewJSONL(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		rec := recs[i%len(recs)]
		if err := w.Write(dispersion.Trial{Index: rec.Trial, Result: rec.Result}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeRecordEncodingJSON(b *testing.B) {
	recs := benchResults(b)
	enc := json.NewEncoder(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if err := enc.Encode(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRecord(b *testing.B) {
	lines := benchLines(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		var rec Record
		if err := rec.UnmarshalJSON(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRecordEncodingJSON(b *testing.B) {
	lines := benchLines(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		var rec plainRecord
		if err := json.Unmarshal(lines[i%len(lines)], &rec); err != nil {
			b.Fatal(err)
		}
	}
}
