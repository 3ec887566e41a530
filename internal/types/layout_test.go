package types

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestValueLayout pins the 24-byte layout and that == does not compile on
// a Value (the type is not comparable).
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("Value is %d bytes, 24 expected", got)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable: == would compare VARCHARs by pointer")
	}
}

// TestValueKindsRoundTrip runs one value of each kind, at its edges, from
// the constructor through the accessors, the codec, the hash and the
// comparisons. The accessors return, for the kinds they do not hold, what
// the fields they replace held: F 0, S "", Int and Float 0 for VARCHAR and
// NULL. The encodings are the codec's documented bytes.
func TestValueKindsRoundTrip(t *testing.T) {
	le64 := func(tag Kind, x uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{byte(tag)}, x)
	}
	str := func(s string) []byte {
		return append(binary.LittleEndian.AppendUint32([]byte{byte(KindString)}, uint32(len(s))), s...)
	}
	// Variables, so the conversions below are the run-time ones.
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	big := strings.Repeat("ab", 1<<19) // 1 MiB
	cases := []struct {
		name   string
		v      Value
		kind   Kind
		f      float64 // F(), compared by bits
		s      string
		i      int64   // Int()
		fl     float64 // Float(), compared by bits
		b      bool
		width  int
		encode []byte
	}{
		{"null", Null(), KindNull, 0, "", 0, 0, false, 1, []byte{byte(KindNull)}},
		{"int min", NewInt(math.MinInt64), KindInt, 0, "", math.MinInt64, float64(int64(math.MinInt64)), false, 8,
			le64(KindInt, 1<<63)},
		{"int -1", NewInt(-1), KindInt, 0, "", -1, -1, false, 8, le64(KindInt, math.MaxUint64)},
		{"float -0", NewFloat(negZero), KindFloat, negZero, "", 0, negZero, false, 8,
			le64(KindFloat, math.Float64bits(negZero))},
		{"float +inf", NewFloat(inf), KindFloat, inf, "", int64(inf), inf, false, 8,
			le64(KindFloat, math.Float64bits(inf))},
		{"float -inf", NewFloat(-inf), KindFloat, -inf, "", int64(-inf), -inf, false, 8,
			le64(KindFloat, math.Float64bits(-inf))},
		{"float nan", NewFloat(nan), KindFloat, nan, "", int64(nan), nan, false, 8,
			le64(KindFloat, math.Float64bits(nan))},
		{"float -2.5", NewFloat(-2.5), KindFloat, -2.5, "", -2, -2.5, false, 8,
			le64(KindFloat, math.Float64bits(-2.5))},
		{"varchar empty", NewString(""), KindString, 0, "", 0, 0, false, 2, str("")},
		{"varchar 1MiB", NewString(big), KindString, 0, big, 0, 0, false, len(big) + 2, str(big)},
		{"bool true", NewBool(true), KindBool, 0, "", 1, 1, true, 1, []byte{byte(KindBool), 1}},
		{"bool false", NewBool(false), KindBool, 0, "", 0, 0, false, 1, []byte{byte(KindBool), 0}},
	}
	for _, c := range cases {
		v := c.v
		if v.K != c.kind || v.IsNull() != (c.kind == KindNull) || v.Bool() != c.b {
			t.Errorf("%s: kind %s, IsNull %v, Bool %v", c.name, v.K, v.IsNull(), v.Bool())
		}
		if math.Float64bits(v.F()) != math.Float64bits(c.f) || v.S() != c.s || v.Int() != c.i ||
			math.Float64bits(v.Float()) != math.Float64bits(c.fl) {
			t.Errorf("%s: F %v, len(S) %d, Int %d, Float %v; want %v, %d, %d, %v",
				c.name, v.F(), len(v.S()), v.Int(), v.Float(), c.f, len(c.s), c.i, c.fl)
		}
		if v.DiskWidth() != c.width {
			t.Errorf("%s: DiskWidth %d, want %d", c.name, v.DiskWidth(), c.width)
		}
		enc := EncodeValue(nil, v)
		if !bytes.Equal(enc, c.encode) {
			t.Errorf("%s: encodes to % x, want % x", c.name, head(enc), head(c.encode))
		}
		d, rest, err := DecodeValue(append(enc, 0xee))
		if err != nil || !bytes.Equal(rest, []byte{0xee}) {
			t.Fatalf("%s: decode: rest % x, %v", c.name, rest, err)
		}
		// The decoded value owns its bytes: reusing the buffer changes nothing.
		clear(enc)
		if d.K != v.K || math.Float64bits(d.F()) != math.Float64bits(v.F()) || d.S() != v.S() || d.Int() != v.Int() {
			t.Errorf("%s: decodes to a different value", c.name)
		}
		if !bytes.Equal(EncodeValue(nil, d), c.encode) {
			t.Errorf("%s: the decoded value re-encodes differently", c.name)
		}
		if HashValue(&d) != HashValue(&v) || !Equal(d, v) || Compare(d, v) != 0 || Compare(v, d) != 0 {
			t.Errorf("%s: hash, Equal or Compare tell the decoded value apart", c.name)
		}
	}
	// -0 is +0 to every comparison and to the hash, as a FLOAT and as INT 0.
	negZ, zero, intZero := NewFloat(negZero), NewFloat(0), NewInt(0)
	for _, o := range []Value{zero, intZero} {
		if !Equal(negZ, o) || Compare(negZ, o) != 0 || HashValue(&negZ) != HashValue(&o) {
			t.Errorf("-0 and %v: Equal %v, Compare %d", o, Equal(negZ, o), Compare(negZ, o))
		}
	}
	// Two VARCHARs of one length but different bytes, and one built apart
	// from a literal of the same text.
	a, b := NewString("abc"), NewString("abd")
	c := NewString(strings.Clone("abc"))
	if Equal(a, b) || Compare(a, b) != -1 || !Equal(a, c) || HashValue(&a) != HashValue(&c) {
		t.Error("VARCHARs of equal length compare by their bytes, not their pointers")
	}
}

// head shortens an encoding for a message.
func head(b []byte) []byte {
	if len(b) > 16 {
		return b[:16]
	}
	return b
}
