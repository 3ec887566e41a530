package types

import (
	"bytes"
	"cmp"
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

// CompareAt orders value i of a against value j of b as Compare orders
// them, without building either: NULL first, INT, BOOLEAN, FLOAT and
// VARCHAR pairs of one kind straight from their typed slices (a NaN above
// every other number and equal to NaN, -0 equal to +0), and every other
// pair, INT against FLOAT among them, through Compare.
func CompareAt(a *Vector, i int, b *Vector, j int) int {
	switch an, bn := a.IsNull(i), b.IsNull(j); {
	case an || bn:
		switch {
		case an == bn:
			return 0
		case an:
			return -1
		}
		return 1
	case a.K != b.K:
		return Compare(a.Value(i), b.Value(j))
	}
	switch a.K {
	case KindInt, KindBool:
		return cmp.Compare(a.Ints[i], b.Ints[j])
	case KindFloat:
		switch x, y := a.Floats[i], b.Floats[j]; {
		case x < y:
			return -1
		case x > y:
			return 1
		case x == y:
			return 0
		default:
			return CompareNaN(x, y)
		}
	case KindString:
		return bytes.Compare(a.Bytes[a.Offs[i]:a.Offs[i+1]], b.Bytes[b.Offs[j]:b.Offs[j+1]])
	}
	return Compare(a.Value(i), b.Value(j))
}

// EqualAt appends to dst the positions p of sel, in order, at which a's
// value is not NULL and CompareAt(a, p, b, j) is 0: none when b's value j
// is NULL. Vectors of one value kind compare straight from their typed
// slices, each kind in a loop of its own; every other pair, a mixed vector
// (a gathered VARCHAR column among them) or INT against FLOAT, compares
// as values with Equal. dst may be sel[:0], narrowing sel in place.
func EqualAt(a *Vector, sel []int32, b *Vector, j int, dst []int32) []int32 {
	switch same := a.K == b.K; {
	case b.IsNull(j):
	case same && (a.K == KindInt || a.K == KindBool):
		x := b.Ints[j]
		for _, p := range sel {
			if a.Ints[p] == x && !a.nullAt(int(p)) {
				dst = append(dst, p)
			}
		}
	case same && a.K == KindFloat:
		x := b.Floats[j]
		for _, p := range sel {
			if y := a.Floats[p]; (y == x || x != x && y != y) && !a.nullAt(int(p)) {
				dst = append(dst, p)
			}
		}
	case same && a.K == KindString:
		x := b.Bytes[b.Offs[j]:b.Offs[j+1]]
		for _, p := range sel {
			if bytes.Equal(a.Bytes[a.Offs[p]:a.Offs[p+1]], x) && !a.nullAt(int(p)) {
				dst = append(dst, p)
			}
		}
	default:
		x := b.Value(j) // not NULL, so no NULL of a equals it
		for _, p := range sel {
			if Equal(a.Value(int(p)), x) {
				dst = append(dst, p)
			}
		}
	}
	return dst
}

// IntRange returns the least and the greatest INT of v, a vector of INTs
// and NULLs, or ok=false for any other vector and for one of NULLs only.
func (v *Vector) IntRange() (lo, hi int64, ok bool) {
	if v.K != KindInt {
		return 0, 0, false
	}
	for k, x := range v.Ints {
		if v.Nulls != nil && v.nullAt(k) {
			continue
		}
		if !ok {
			lo, hi, ok = x, x, true
		}
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi, ok
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
// the reset still reads them. Only the slices in use are written: a batch
// of one row resets its vectors once a row, and each slice written is a
// pointer store the garbage collector's write barrier sees.
func (v *Vector) Reset() {
	v.K, v.N = KindNull, 0
	if len(v.Ints) > 0 {
		v.Ints = v.Ints[:0]
	}
	if len(v.Floats) > 0 {
		v.Floats = v.Floats[:0]
	}
	if len(v.Offs) > 0 {
		v.Offs = v.Offs[:0]
	}
	if len(v.Vals) > 0 {
		clear(v.Vals) // drop the references a pooled vector would pin
		v.Vals = v.Vals[:0]
	}
	if v.Bytes != nil {
		v.Bytes = nil
	}
	if v.Nulls != nil {
		v.Nulls = nil
	}
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
// NULL. An INT, BOOLEAN or FLOAT vector copies into one of its own kind
// slice to slice, its NULL bits after. VARCHARs are not copied: v keeps
// them as values (Vals), pointing at src's bytes, which are never
// overwritten.
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
	if v.N == 0 && v.K == KindNull {
		v.become(src.K)
	}
	if src.K != v.K || v.K == KindString || v.K == kindMixed || v.K == KindNull {
		for _, k := range sel {
			if k < 0 {
				v.Append(Value{})
			} else {
				v.Append(src.Value(int(k)))
			}
		}
		return
	}
	base, pads := v.N, false
	if v.K == KindFloat {
		v.Floats, pads = gatherInto(v.Floats, src.Floats, sel)
	} else {
		v.Ints, pads = gatherInto(v.Ints, src.Ints, sel)
	}
	v.N += len(sel)
	if pads || src.Nulls != nil {
		for i, k := range sel {
			if k < 0 || src.nullAt(int(k)) {
				v.setNull(base + i)
			}
		}
	}
}

// gatherInto appends src[k] for each k of sel to dst, the zero for a
// negative k, and reports whether sel holds one.
func gatherInto[T int64 | float64](dst, src []T, sel []int32) (out []T, pads bool) {
	if len(sel) == 1 && sel[0] >= 0 {
		return append(dst, src[sel[0]]), false
	}
	n := len(dst)
	dst = slices.Grow(dst, len(sel))[:n+len(sel)]
	for i, k := range sel {
		if k >= 0 {
			dst[n+i] = src[k]
		} else {
			dst[n+i], pads = 0, true
		}
	}
	return dst, pads
}

// AppendInts appends the INTs xs.
func (v *Vector) AppendInts(xs []int64) { v.appendAll(KindInt, xs, nil) }

// AppendFloats appends the FLOATs xs.
func (v *Vector) AppendFloats(xs []float64) { v.appendAll(KindFloat, nil, xs) }

// appendAll appends ints (INTs) or floats (FLOATs) of kind k: to the typed
// slice when v holds k or nothing yet, as values otherwise.
func (v *Vector) appendAll(k Kind, ints []int64, floats []float64) {
	if v.N == 0 && v.K == KindNull {
		v.become(k)
	}
	if v.K != k {
		for _, x := range ints {
			v.Append(NewInt(x))
		}
		for _, x := range floats {
			v.Append(NewFloat(x))
		}
		return
	}
	v.Ints, v.Floats = append(v.Ints, ints...), append(v.Floats, floats...)
	v.N += len(ints) + len(floats)
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

// mix moves the values into Vals. The typed slices keep their storage,
// emptied, for the vector's next life after a Reset, as Reset keeps it;
// until then nothing writes it, so a copy of the struct taken earlier
// still reads its values.
func (v *Vector) mix() {
	vals := v.Vals[:0]
	for i := 0; i < v.N; i++ {
		vals = append(vals, v.Value(i))
	}
	*v = Vector{K: kindMixed, N: v.N, Vals: vals, Ints: v.Ints[:0], Floats: v.Floats[:0], Offs: v.Offs[:0]}
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
