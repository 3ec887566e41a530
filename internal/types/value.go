// Package types defines the scalar value model shared by the storage layer,
// the expression evaluator, and the executor.
//
// Values are small tagged unions. The engine assumes, following the paper
// (Section 2), that the database contains no NULLs; Null is still a first
// class Kind so that aggregate functions over empty inputs and outer layers
// of the system can represent "no value" without panicking.
package types

import (
	"fmt"
	"math"
	"strconv"
	"unsafe"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

// Supported kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Numeric reports whether the kind is INT or FLOAT.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Width returns the byte width used for page-space accounting. Strings use
// a representative width; exact string lengths are accounted per value.
func (k Kind) Width() int {
	switch k {
	case KindInt, KindFloat:
		return 8
	case KindBool:
		return 1
	case KindString:
		return 16
	default:
		return 1
	}
}

// Value is a scalar runtime value. The zero Value is NULL.
//
// A Value is 24 bytes, because the executor stores, copies and hashes
// little else: I holds an INT or BOOLEAN (0/1) payload, a FLOAT's
// math.Float64bits, or a VARCHAR's length, and p a VARCHAR's bytes. F, S
// and Int read the payload back and return the zero of their type for the
// kinds they do not hold; read I directly only under a kind check. The
// zero-size leading field makes Value incomparable, so == cannot compare
// two strings by their pointers: compare with Equal.
type Value struct {
	_ [0]func()
	p *byte
	I int64
	K Kind
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{K: KindInt, I: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{K: KindFloat, I: int64(math.Float64bits(v))} }

// NewString returns a VARCHAR value.
func NewString(v string) Value {
	return Value{K: KindString, p: unsafe.StringData(v), I: int64(len(v))}
}

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	b := int64(0)
	if v {
		b = 1
	}
	return Value{K: KindBool, I: b}
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool returns the boolean payload; it is false for non-boolean values.
func (v Value) Bool() bool { return v.K == KindBool && v.I != 0 }

// F returns a FLOAT's payload, and 0 for every other kind.
func (v Value) F() float64 {
	if v.K != KindFloat {
		return 0
	}
	return math.Float64frombits(uint64(v.I))
}

// S returns a VARCHAR's payload, and "" for every other kind.
func (v Value) S() string {
	if v.K != KindString {
		return ""
	}
	return unsafe.String(v.p, v.I)
}

// Int returns the integer payload, converting FLOAT by truncation; it is 0
// for NULL and VARCHAR.
func (v Value) Int() int64 {
	switch v.K {
	case KindInt, KindBool:
		return v.I
	case KindFloat:
		return int64(v.F())
	default:
		return 0
	}
}

// Float returns the numeric payload as float64; it is 0 for NULL and
// VARCHAR.
func (v Value) Float() float64 {
	switch v.K {
	case KindInt, KindBool:
		return float64(v.I)
	case KindFloat:
		return v.F()
	default:
		return 0
	}
}

// String renders the value for display and plan annotations.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F(), 'g', -1, 64)
	case KindString:
		return "'" + v.S() + "'"
	case KindBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(v.K))
	}
}

// DiskWidth returns the number of bytes the value occupies in page-space
// accounting (not a physical serialization size; pages store Values directly).
func (v Value) DiskWidth() int {
	if v.K == KindString {
		return int(v.I) + 2
	}
	return v.K.Width()
}

// Compare orders two values. NULL sorts before everything; INT and FLOAT
// compare numerically across kinds, with NaN above every other number and
// equal to itself, as in PostgreSQL; otherwise values of different kinds
// compare by kind tag (a total order, so sorting mixed columns is stable).
// The result is -1, 0 or +1.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == b.K:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.K.Numeric() && b.K.Numeric() {
		if a.K == KindInt && b.K == KindInt {
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			default:
				return 0
			}
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		case af == bf:
			return 0
		}
		return CompareNaN(af, bf)
	}
	if a.K != b.K {
		if a.K < b.K {
			return -1
		}
		return 1
	}
	switch a.K {
	case KindString:
		switch as, bs := a.S(), b.S(); {
		case as < bs:
			return -1
		case as > bs:
			return 1
		default:
			return 0
		}
	case KindBool:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// CompareNaN orders a and b, at least one of them NaN, as Compare does:
// NaN above every other number and equal to NaN.
func CompareNaN(a, b float64) int {
	switch aNaN, bNaN := a != a, b != b; {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return 1
	default:
		return -1
	}
}

// Equal reports whether two values compare equal under Compare semantics.
// Same-kind INT, BOOLEAN, VARCHAR and NULL pairs are decided without the
// three-way comparison.
func Equal(a, b Value) bool {
	if a.K == b.K {
		switch a.K {
		case KindInt, KindBool:
			return a.I == b.I
		case KindString:
			return a.S() == b.S()
		case KindNull:
			return true
		}
	}
	return Compare(a, b) == 0
}

// AppendKey appends a self-delimiting encoding of v to dst such that two
// values of one kind are Equal iff their encodings are byte-equal. It keys
// the maps of the reference executor and ANALYZE's distinct counts, and
// assigns spill partitions. Numeric values encode through float64 so
// that INT 2 and FLOAT 2.0 land in the same group, mirroring Compare; -0
// encodes as +0 and every NaN as one NaN. An INT that float64 cannot
// represent keeps its own exact
// encoding, so distinct INTs above 2^53 stay distinct. Such an INT is the
// one case where the encoding is stricter than Equal: Compare rounds it to
// the nearest float64 when the other side is a FLOAT, the encoding does not.
func AppendKey(dst []byte, v Value) []byte {
	switch v.K {
	case KindNull:
		return append(dst, 0x00)
	case KindInt, KindFloat:
		f := v.Float()
		bits := math.Float64bits(f)
		tag := byte(0x01)
		switch {
		case f == 0:
			bits = 0
		case f != f:
			bits = nanBits
		case v.K == KindInt && !intIsFloat(v.I, f):
			tag, bits = 0x04, uint64(v.I)
		}
		return append(dst, tag,
			byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
			byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
	case KindString:
		dst = append(dst, 0x02)
		n := v.I
		dst = append(dst, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
		return append(dst, v.S()...)
	case KindBool:
		dst = append(dst, 0x03, byte(v.I))
		return dst
	default:
		return append(dst, 0xff)
	}
}

// intIsFloat reports whether f, the float64 nearest to i, is exactly i.
// float64(MaxInt64) rounds up to 2^63, which int64 cannot hold, so the
// range is checked before converting back.
func intIsFloat(i int64, f float64) bool {
	return f < 1<<63 && int64(f) == i
}

// Row is a tuple of values.
type Row []Value

// Clone returns a copy of the row sharing string storage.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// DiskWidth returns the accounted on-page width of the row in bytes.
func (r Row) DiskWidth() int {
	w := 4 // per-tuple header
	for _, v := range r {
		w += v.DiskWidth()
	}
	return w
}

// AppendKey appends the key encoding of the listed column positions.
func (r Row) AppendKey(dst []byte, cols []int) []byte {
	for _, c := range cols {
		dst = AppendKey(dst, r[c])
	}
	return dst
}

// CompareRows orders two rows by the given column positions.
func CompareRows(a, b Row, cols []int) int {
	for _, c := range cols {
		if d := Compare(a[c], b[c]); d != 0 {
			return d
		}
	}
	return 0
}
