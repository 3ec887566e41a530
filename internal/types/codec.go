package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary value codec. The write-ahead log and catalog checkpoints persist
// rows with this encoding; it is self-delimiting, byte-exact (unlike
// AppendKey, which collapses INT 2 and FLOAT 2.0 into one key), and stable
// across processes — a recovered engine decodes exactly the values the
// crashed engine encoded.
//
// Layout: one kind tag byte, then a fixed 8-byte little-endian payload for
// INT/FLOAT, one byte for BOOLEAN, or a u32 length prefix plus bytes for
// VARCHAR. NULL is the bare tag.

// EncodeValue appends the binary encoding of v to dst.
func EncodeValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.K))
	switch v.K {
	case KindNull:
	case KindInt:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	case KindString:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v.I))
		dst = append(dst, v.S()...)
	case KindBool:
		dst = append(dst, byte(v.I))
	}
	return dst
}

// DecodeValue decodes one value from b, returning it and the remaining
// bytes. A truncated or unknown encoding returns an error rather than
// panicking: torn log tails reach this decoder.
func DecodeValue(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Value{}, nil, fmt.Errorf("types: decode value: empty input")
	}
	k := Kind(b[0])
	b = b[1:]
	switch k {
	case KindNull:
		return Null(), b, nil
	case KindInt:
		if len(b) < 8 {
			return Value{}, nil, fmt.Errorf("types: decode INT: %d bytes left", len(b))
		}
		return NewInt(int64(binary.LittleEndian.Uint64(b))), b[8:], nil
	case KindFloat:
		if len(b) < 8 {
			return Value{}, nil, fmt.Errorf("types: decode FLOAT: %d bytes left", len(b))
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b))), b[8:], nil
	case KindString:
		if len(b) < 4 {
			return Value{}, nil, fmt.Errorf("types: decode VARCHAR length: %d bytes left", len(b))
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < n {
			return Value{}, nil, fmt.Errorf("types: decode VARCHAR: want %d bytes, have %d", n, len(b))
		}
		return NewString(string(b[:n])), b[n:], nil
	case KindBool:
		if len(b) < 1 {
			return Value{}, nil, fmt.Errorf("types: decode BOOLEAN: empty payload")
		}
		return Value{K: KindBool, I: int64(b[0])}, b[1:], nil
	default:
		return Value{}, nil, fmt.Errorf("types: decode value: unknown kind tag %d", uint8(k))
	}
}

// EncodeRow appends the row's arity (u32) and each value's encoding to dst.
func EncodeRow(dst []byte, r Row) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r)))
	for _, v := range r {
		dst = EncodeValue(dst, v)
	}
	return dst
}

// DecodeRow decodes one row from b, returning it and the remaining bytes.
func DecodeRow(b []byte) (Row, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("types: decode row arity: %d bytes left", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	// Every encoded value is at least its kind byte: a larger arity is
	// damage, and trusting it would size the row from garbage.
	if n > len(b) {
		return nil, nil, fmt.Errorf("types: decode row: arity %d in %d bytes", n, len(b))
	}
	row := make(Row, n)
	for i := 0; i < n; i++ {
		var err error
		row[i], b, err = DecodeValue(b)
		if err != nil {
			return nil, nil, fmt.Errorf("row column %d: %w", i, err)
		}
	}
	return row, b, nil
}
