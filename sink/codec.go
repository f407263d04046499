package sink

import (
	"encoding/json"
	"strconv"

	"dispersion"
	"dispersion/internal/wire"
)

// The JSONL codec. A result line is written in one canonical layout —
// the keys of Record and dispersion.Result in declaration order, no
// whitespace — which is byte for byte what encoding/json writes for a
// Record. AppendRecord writes that layout directly and
// Record.UnmarshalJSON parses it directly, without reflection. Each
// leaves the rare rest to encoding/json: AppendRecord a Process that
// needs escaping or a non-finite time, UnmarshalJSON any other input
// (reordered or case-variant keys, whitespace, escapes, missing fields),
// which it decodes on plainRecord, so every line encoding/json accepts
// still decodes to the same value.
//
// Record deliberately has no MarshalJSON: encoding/json re-scans a
// marshaler's output, which would cost more than reflection saves.

// plainRecord is Record without its methods, for encoding/json.
type plainRecord Record

// AppendRecord appends the JSON encoding of rec to dst and returns the
// extended buffer: exactly the bytes json.Marshal(rec) returns. It writes
// a Result whose Process needs no escaping and whose times are finite
// directly, and hands any other to json.Marshal, which fails, appending
// nothing, on a NaN or infinite time.
func AppendRecord(dst []byte, rec Record) ([]byte, error) {
	r := rec.Result
	if r != nil && !plain(r) {
		b, err := json.Marshal(rec)
		return append(dst, b...), err
	}
	dst = append(dst, `{"trial":`...)
	dst = strconv.AppendInt(dst, int64(rec.Trial), 10)
	if r == nil {
		return append(dst, `,"result":null}`...), nil
	}
	dst = append(dst, `,"result":{"Process":`...)
	dst = append(dst, '"')
	dst = append(dst, r.Process...)
	dst = append(dst, '"')
	dst = append(dst, `,"Continuous":`...)
	dst = strconv.AppendBool(dst, r.Continuous)
	dst = append(dst, `,"Dispersion":`...)
	dst = strconv.AppendInt(dst, r.Dispersion, 10)
	dst = append(dst, `,"TotalSteps":`...)
	dst = strconv.AppendInt(dst, r.TotalSteps, 10)
	dst = append(dst, `,"Steps":`...)
	dst = wire.AppendArray(dst, r.Steps, wire.AppendInt)
	dst = append(dst, `,"SettledAt":`...)
	dst = wire.AppendArray(dst, r.SettledAt, wire.AppendInt)
	dst = append(dst, `,"SettleOrder":`...)
	dst = wire.AppendArray(dst, r.SettleOrder, wire.AppendInt)
	dst = append(dst, `,"SettleClock":`...)
	dst = wire.AppendArray(dst, r.SettleClock, wire.AppendInt)
	dst = append(dst, `,"Trajectories":`...)
	dst = wire.AppendArray(dst, r.Trajectories, func(dst []byte, tr []int32) []byte {
		return wire.AppendArray(dst, tr, wire.AppendInt)
	})
	dst = append(dst, `,"Truncated":`...)
	dst = strconv.AppendBool(dst, r.Truncated)
	dst = append(dst, `,"Capacity":`...)
	dst = strconv.AppendInt(dst, int64(r.Capacity), 10)
	dst = append(dst, `,"Time":`...)
	dst = wire.AppendFloat(dst, r.Time)
	dst = append(dst, `,"SettleTimes":`...)
	dst = wire.AppendArray(dst, r.SettleTimes, wire.AppendFloat)
	return append(dst, "}}"...), nil
}

// plain reports whether r encodes without escaping or error: its Process
// is wire.Plain and its times are finite.
func plain(r *dispersion.Result) bool {
	if !wire.Plain(r.Process) || !wire.Finite(r.Time) {
		return false
	}
	for _, t := range r.SettleTimes {
		if !wire.Finite(t) {
			return false
		}
	}
	return true
}

// UnmarshalJSON decodes one record: directly when data is in the
// canonical layout AppendRecord writes, and through encoding/json
// otherwise. Either way the outcome is what json.Unmarshal into a
// method-less Record gives, error or value, including nil versus empty
// slices. As with encoding/json, a non-nil Result is decoded into in
// place.
func (r *Record) UnmarshalJSON(data []byte) error {
	trial, res, ok := parseCanonical(data)
	if !ok {
		return json.Unmarshal(data, (*plainRecord)(r))
	}
	r.Trial = trial
	switch {
	case res == nil:
		r.Result = nil
	case r.Result == nil:
		r.Result = res
	default:
		*r.Result = *res
	}
	return nil
}

// parseCanonical parses a line in the canonical layout; ok is false for
// any other input.
func parseCanonical(data []byte) (trial int, res *dispersion.Result, ok bool) {
	p := wire.NewParser(data)
	p.Lit(`{"trial":`)
	trial = wire.Int[int](&p)
	p.Lit(`,"result":`)
	if !p.Next("null") {
		res = new(dispersion.Result)
		parseResult(&p, res)
	}
	p.Lit("}")
	return trial, res, p.Complete()
}

// parseResult reads a Result's object. A mismatch leaves p bad, after
// which the caller hands the input to encoding/json.
func parseResult(p *wire.Parser, r *dispersion.Result) {
	p.Lit(`{"Process":`)
	r.Process = p.Str()
	p.Lit(`,"Continuous":`)
	r.Continuous = p.Bool()
	p.Lit(`,"Dispersion":`)
	r.Dispersion = wire.Int[int64](p)
	p.Lit(`,"TotalSteps":`)
	r.TotalSteps = wire.Int[int64](p)
	p.Lit(`,"Steps":`)
	r.Steps = wire.Ints[int64](p)
	p.Lit(`,"SettledAt":`)
	r.SettledAt = wire.Ints[int32](p)
	p.Lit(`,"SettleOrder":`)
	r.SettleOrder = wire.Ints[int32](p)
	p.Lit(`,"SettleClock":`)
	r.SettleClock = wire.Ints[int64](p)
	p.Lit(`,"Trajectories":`)
	r.Trajectories = wire.Array(p, wire.Ints[int32])
	p.Lit(`,"Truncated":`)
	r.Truncated = p.Bool()
	p.Lit(`,"Capacity":`)
	r.Capacity = wire.Int[int](p)
	p.Lit(`,"Time":`)
	r.Time = p.Float()
	p.Lit(`,"SettleTimes":`)
	r.SettleTimes = wire.Array(p, (*wire.Parser).Float)
	p.Lit("}")
}
