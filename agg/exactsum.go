package agg

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"strings"
)

// sumScale is the power-of-two fixed-point scale of exactSum: every
// finite float64 is an integer multiple of 2^-1074 with at most 53
// mantissa bits, so x·2^1126 is an integer for all x (the smallest
// decomposition exponent produced by frexp is 2^-1126).
const sumScale = 1126

// sumBits and sqsBits bound the bit length of a sum of values and of a
// sum of their squares. Every value is below 2^1024 in magnitude, or add
// would have panicked on its infinity, so its exact square is below
// 2^2048; a sum of at most 2^63 of them stays below 2^1087 or 2^2111,
// which the fixed-point scale makes 2^(1087+sumScale) or 2^(2111+sumScale).
const sumBits, sqsBits = 1087 + sumScale, 2111 + sumScale

// exactSum accumulates float64 values exactly: each addend is
// decomposed into its integer mantissa and exponent and added to a
// fixed-point big.Int scaled by 2^sumScale. Integer addition is
// associative and commutative, so a sum over any partition of a
// multiset — one contiguous stream, or per-shard sums merged in any
// order — lands on the identical accumulator state. The float64 value
// is recovered with a single correct rounding at read time.
type exactSum struct {
	acc big.Int
	tmp big.Int // scratch for add, so steady-state adds do not allocate
}

// add folds one finite value into the accumulator. It panics on NaN or
// ±Inf: an exact sum of an infinity does not exist, and silently
// poisoning the accumulator would surface much later as a nonsense
// summary.
func (s *exactSum) add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("agg: cannot accumulate non-finite value %v", x))
	}
	if x == 0 {
		return
	}
	fr, exp := math.Frexp(x) // x = fr·2^exp, 0.5 <= |fr| < 1
	m := int64(fr * (1 << 53))
	// x·2^sumScale = m · 2^(exp-53+sumScale); the shift is >= 0 for
	// every float64 down to the smallest subnormal.
	s.tmp.SetInt64(m)
	s.tmp.Lsh(&s.tmp, uint(exp-53+sumScale))
	s.acc.Add(&s.acc, &s.tmp)
}

// addSquare folds in the square of a finite x: the rounded x·x where it
// is finite, so no existing sum changes, else the exact square. With
// x = m·2^(e−53) and m the 53-bit mantissa, that is m² at 2^(2e−106).
func (s *exactSum) addSquare(x float64) {
	if sq := x * x; !math.IsInf(sq, 0) {
		s.add(sq)
		return
	}
	fr, e := math.Frexp(math.Abs(x))
	m := uint64(fr * (1 << 53))
	hi, lo := bits.Mul64(m, m)
	shift := uint(2*e - 106 + sumScale)
	s.acc.Add(&s.acc, s.tmp.Lsh(s.tmp.SetUint64(hi), shift+64))
	s.acc.Add(&s.acc, s.tmp.Lsh(s.tmp.SetUint64(lo), shift))
}

// merge folds another accumulator in.
func (s *exactSum) merge(o *exactSum) {
	s.acc.Add(&s.acc, &o.acc)
}

// float returns a big.Float holding the accumulated sum: exact when
// prec is 0 (the precision grows to fit the integer), else rounded to
// prec bits.
func (s *exactSum) float(prec uint) *big.Float {
	f := new(big.Float)
	if prec > 0 {
		f.SetPrec(prec)
	}
	f.SetInt(&s.acc)
	return f.SetMantExp(f, -sumScale)
}

// value returns the accumulated sum rounded once to float64 (±Inf on
// overflow of the float64 range).
func (s *exactSum) value() float64 {
	if s.acc.Sign() == 0 {
		return 0
	}
	v, _ := s.float(0).Float64()
	return v
}

// text renders the accumulated sum exactly as "m*2^k" with m an odd
// decimal integer ("0" for an empty sum). Factoring out the power of
// two keeps the string short — a sum of integer makespans renders as
// the plain integer scaled by 2^0-ish exponents instead of a
// ~340-digit raw accumulator — and the odd-mantissa normal form is
// canonical: equal accumulator states render to equal strings.
func (s *exactSum) text() string { return string(s.appendText(nil)) }

// appendText appends the text rendering to dst.
func (s *exactSum) appendText(dst []byte) []byte {
	if s.acc.Sign() == 0 {
		return append(dst, '0')
	}
	tz := s.acc.TrailingZeroBits()
	var m big.Int
	m.Rsh(&s.acc, tz)
	dst = m.Append(dst, 10)
	dst = append(dst, "*2^"...)
	return strconv.AppendInt(dst, int64(tz)-sumScale, 10)
}

// setText restores an accumulator serialized by text, of at most maxBits
// bits.
func (s *exactSum) setText(t string, maxBits int) error {
	if t == "0" {
		s.acc.SetInt64(0)
		return nil
	}
	mt, kt, ok := strings.Cut(t, "*2^")
	if !ok {
		return fmt.Errorf("agg: bad exact-sum accumulator %q (want \"m*2^k\")", t)
	}
	k, err := strconv.Atoi(kt)
	if err != nil || k < -sumScale || k > maxBits-sumScale {
		return fmt.Errorf("agg: bad exact-sum exponent in %q", t)
	}
	// A decimal digit carries more than three bits, so a longer mantissa
	// is out of range before it is parsed.
	if len(mt) > maxBits/3 {
		return fmt.Errorf("agg: exact-sum mantissa of %d digits is beyond any sum of 2^63 float64 values", len(mt))
	}
	if _, ok := s.acc.SetString(mt, 10); !ok {
		return fmt.Errorf("agg: bad exact-sum mantissa in %q", t)
	}
	if s.acc.BitLen()+k+sumScale > maxBits {
		return fmt.Errorf("agg: exact-sum accumulator %q is beyond any sum of 2^63 float64 values", t)
	}
	s.acc.Lsh(&s.acc, uint(k+sumScale))
	return nil
}
