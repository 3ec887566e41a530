package types

import (
	"fmt"
	"math"
	"slices"
)

// Vector is one column of a page or of an executor batch: N values held in
// a typed slice. INT and BOOLEAN values keep their payload (Value.I) in
// Ints, FLOAT values in Floats, and VARCHAR values as Bytes cut at Offs
// (value i is Bytes[Offs[i]:Offs[i+1]], so Offs holds N+1 offsets). A NULL
// holds the zero of the typed slice and sets its bit in Nulls, which stays
// nil until the first NULL arrives. While every value is NULL, K is
// KindNull and nothing is stored. A column whose non-NULL values mix kinds
// keeps them all in Vals, and so does an executor batch's column of
// VARCHARs gathered from another vector (AppendSel); K is then none of the
// value kinds, and Value reads Vals.
//
// Append never changes a value already held, so a copy of the struct taken
// earlier keeps reading the values it had, and a VARCHAR read from a vector
// (Value) stays valid as long as anything holds it, Reset included.
type Vector struct {
	K      Kind
	N      int
	Ints   []int64
	Floats []float64
	Offs   []uint32
	Bytes  []byte
	Nulls  []uint64
	Vals   []Value
}

// kindMixed is the K of a vector whose values mix kinds.
const kindMixed Kind = 0xff

// IsNull reports whether value i is NULL.
func (v *Vector) IsNull(i int) bool {
	switch v.K {
	case KindNull:
		return true
	case kindMixed:
		return v.Vals[i].K == KindNull
	}
	return v.nullAt(i)
}

// Value returns value i. A VARCHAR aliases the vector's bytes.
func (v *Vector) Value(i int) Value {
	switch {
	case v.K == kindMixed:
		return v.Vals[i]
	case v.K == KindNull || v.Nulls != nil && v.nullAt(i):
		return Value{}
	case v.K == KindFloat:
		return Value{K: KindFloat, I: int64(math.Float64bits(v.Floats[i]))}
	case v.K == KindString:
		lo, hi := v.Offs[i], v.Offs[i+1]
		if lo == hi {
			return Value{K: KindString}
		}
		return Value{K: KindString, p: &v.Bytes[lo], I: int64(hi - lo)}
	default: // INT, BOOLEAN
		return Value{K: v.K, I: v.Ints[i]}
	}
}

// nullAt reports whether value i's NULL bit is set.
func (v *Vector) nullAt(i int) bool {
	return i>>6 < len(v.Nulls) && v.Nulls[i>>6]>>(uint(i)&63)&1 != 0
}

// DiskWidth returns Value(i).DiskWidth() without building the value.
func (v *Vector) DiskWidth(i int) int {
	switch {
	case v.K == kindMixed:
		return v.Vals[i].DiskWidth()
	case v.IsNull(i):
		return KindNull.Width()
	case v.K == KindString:
		return int(v.Offs[i+1]-v.Offs[i]) + 2
	default:
		return v.K.Width()
	}
}

// Reset empties the vector, keeping its typed storage. The VARCHAR bytes
// are let go rather than overwritten: a value read from the vector before
// the reset still reads them.
func (v *Vector) Reset() {
	clear(v.Vals) // drop the references a pooled vector would pin
	v.K, v.N = KindNull, 0
	v.Ints, v.Floats, v.Offs, v.Vals = v.Ints[:0], v.Floats[:0], v.Offs[:0], v.Vals[:0]
	v.Bytes, v.Nulls = nil, nil
}

// Append adds x as value N.
func (v *Vector) Append(x Value) {
	switch {
	case x.K == KindNull:
		v.appendNull()
	case x.K == v.K:
		v.appendTyped(x)
	case v.K == KindNull:
		v.become(x.K)
		v.appendTyped(x)
	default:
		if v.K != kindMixed {
			v.mix()
		}
		v.Vals = append(v.Vals, x)
	}
	v.N++
}

// AppendRef appends x as Append does, except that a VARCHAR is kept as a
// value (Vals), pointing at the bytes it was read from, not copied: an
// executor batch's column takes rows this way.
func (v *Vector) AppendRef(x Value) {
	if x.K != KindString && v.K != kindMixed {
		v.Append(x)
		return
	}
	if v.K != kindMixed {
		v.mix()
	}
	v.Vals = append(v.Vals, x)
	v.N++
}

// AppendSel appends src's values at sel, in order; -1 in sel appends a
// NULL. An INT, BOOLEAN or FLOAT vector without NULLs copies into one of
// its own kind slice to slice. VARCHARs are not copied: v keeps them as
// values (Vals), pointing at src's bytes, which are never overwritten.
func (v *Vector) AppendSel(src *Vector, sel []int32) {
	if src.K == KindString || src.K == kindMixed {
		if v.K != kindMixed {
			v.mix()
		}
		for _, k := range sel {
			if k < 0 {
				v.Vals = append(v.Vals, Value{})
			} else {
				v.Vals = append(v.Vals, src.Value(int(k)))
			}
		}
		v.N += len(sel)
		return
	}
	if v.N == 0 && v.K == KindNull && src.K != KindNull && src.K != kindMixed {
		v.become(src.K)
	}
	if src.K != v.K || src.Nulls != nil || v.K == KindString || v.K == kindMixed || v.K == KindNull {
		for _, k := range sel {
			if k < 0 {
				v.Append(Value{})
			} else {
				v.Append(src.Value(int(k)))
			}
		}
		return
	}
	base := v.N
	if v.K == KindFloat {
		v.Floats = gatherInto(v.Floats, src.Floats, sel)
	} else {
		v.Ints = gatherInto(v.Ints, src.Ints, sel)
	}
	v.N += len(sel)
	for i, k := range sel {
		if k < 0 {
			v.setNull(base + i)
		}
	}
}

// gatherInto appends src[k] for each k of sel to dst, the zero for a
// negative k.
func gatherInto[T int64 | float64](dst, src []T, sel []int32) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(sel))[:n+len(sel)]
	out := dst[n:]
	for i, k := range sel {
		if k >= 0 {
			out[i] = src[k]
		} else {
			out[i] = 0
		}
	}
	return dst
}

func (v *Vector) appendNull() {
	switch v.K {
	case KindNull:
		return
	case kindMixed:
		v.Vals = append(v.Vals, Value{})
		return
	}
	v.setNull(v.N)
	v.appendTyped(Value{K: v.K})
}

// setNull sets the NULL bit of value i.
func (v *Vector) setNull(i int) {
	for len(v.Nulls) <= i>>6 {
		v.Nulls = append(v.Nulls, 0)
	}
	v.Nulls[i>>6] |= 1 << (uint(i) & 63)
}

func (v *Vector) appendTyped(x Value) {
	switch x.K {
	case KindInt, KindBool:
		v.Ints = append(v.Ints, x.I)
	case KindFloat:
		v.Floats = append(v.Floats, math.Float64frombits(uint64(x.I)))
	case KindString:
		v.Bytes = append(v.Bytes, x.S()...)
		v.Offs = append(v.Offs, uint32(len(v.Bytes)))
	}
}

// become turns a vector of N NULLs into one of kind k.
func (v *Vector) become(k Kind) {
	v.K = k
	if k == KindString {
		v.Offs = append(v.Offs[:0], 0)
	}
	for i := 0; i < v.N; i++ {
		v.setNull(i)
		v.appendTyped(Value{K: k})
	}
}

// mix moves the values into Vals. The typed slices are let go, not
// reused: a copy of the struct taken earlier still reads them.
func (v *Vector) mix() {
	vals := v.Vals[:0]
	for i := 0; i < v.N; i++ {
		vals = append(vals, v.Value(i))
	}
	*v = Vector{K: kindMixed, N: v.N, Vals: vals}
}

// clone returns a copy of v that shares no storage with it.
func (v *Vector) clone() Vector {
	return Vector{K: v.K, N: v.N,
		Ints: cloneOrNil(v.Ints), Floats: cloneOrNil(v.Floats), Offs: cloneOrNil(v.Offs),
		Bytes: cloneOrNil(v.Bytes), Nulls: cloneOrNil(v.Nulls), Vals: cloneOrNil(v.Vals)}
}

func cloneOrNil[T any](s []T) []T {
	if s == nil {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// Block is N rows held as one Vector per column: a storage page, or the
// vectors of an executor batch.
type Block struct {
	N    int
	Cols []Vector
}

// AppendRow appends r as row N. Every row of a block has as many values as
// the first; a row of another arity is refused.
func (b *Block) AppendRow(r Row) error {
	if b.N == 0 {
		if cap(b.Cols) < len(r) {
			b.Cols = make([]Vector, len(r))
		}
		b.Cols = b.Cols[:len(r)]
		for j := range b.Cols {
			b.Cols[j].Reset()
		}
	} else if len(r) != len(b.Cols) {
		return fmt.Errorf("types: row of %d values in a block of %d columns", len(r), len(b.Cols))
	}
	for j := range r {
		b.Cols[j].Append(r[j])
	}
	b.N++
	return nil
}

// Row gathers row i into dst, resized to the block's width, and returns it.
func (b *Block) Row(i int, dst Row) Row {
	if cap(dst) < len(b.Cols) {
		dst = make(Row, len(b.Cols))
	}
	dst = dst[:len(b.Cols)]
	for j := range b.Cols {
		dst[j] = b.Cols[j].Value(i)
	}
	return dst
}

// AppendRows gathers every row of the block, each into a row of its own,
// and appends them to dst.
func (b *Block) AppendRows(dst []Row) []Row {
	vals := make([]Value, b.N*len(b.Cols))
	for i := 0; i < b.N; i++ {
		dst = append(dst, b.Row(i, vals[:len(b.Cols):len(b.Cols)]))
		vals = vals[len(b.Cols):]
	}
	return dst
}

// DiskWidth returns the accounted width of the block's rows at sel (nil:
// all N), the sum of their Row.DiskWidth.
func (b *Block) DiskWidth(sel []int32) int {
	n := b.N
	if sel != nil {
		n = len(sel)
	}
	w := n * Row(nil).DiskWidth() // the tuple headers
	for j := range b.Cols {
		v := &b.Cols[j]
		if v.Nulls == nil && (v.K == KindInt || v.K == KindFloat || v.K == KindBool) {
			w += n * v.K.Width()
			continue
		}
		for i := 0; i < n; i++ {
			k := i
			if sel != nil {
				k = int(sel[i])
			}
			w += v.DiskWidth(k)
		}
	}
	return w
}

// Clone returns a copy of the block that shares no storage with it, so
// that appending to either never shows through the other.
func (b *Block) Clone() Block {
	out := Block{N: b.N, Cols: make([]Vector, len(b.Cols))}
	for j := range b.Cols {
		out.Cols[j] = b.Cols[j].clone()
	}
	return out
}
