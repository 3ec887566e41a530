package types

import (
	"math"
	"math/rand"
	"testing"
)

// sameValue reports whether a and b are one value: one kind, and the same
// bits or the same string.
func sameValue(a, b Value) bool {
	if a.K != b.K {
		return false
	}
	if a.K == KindString {
		return a.S() == b.S()
	}
	return a.I == b.I
}

// TestVectorAppendsAgainstValues fills vectors of every kind — typed with
// and without NULLs, all NULL, VARCHAR and mixed — and appends to each,
// through AppendSel, the values of every other at random positions and
// pads (-1), and then, through AppendInts and AppendFloats, runs of INTs
// and FLOATs. Every value must read back as the value appended: its kind,
// its bits (-0.0 and NaN payloads included) or its string.
func TestVectorAppendsAgainstValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pools := map[string][]Value{
		"int":        {NewInt(1), NewInt(-7), NewInt(0), NewInt(math.MaxInt64)},
		"int+null":   {NewInt(3), Null()},
		"float":      {NewFloat(1.5), NewFloat(math.NaN()), NewFloat(negZero), NewFloat(2)},
		"float+null": {NewFloat(-2.5), Null()},
		"bool":       {NewBool(true), NewBool(false)},
		"string":     {NewString("x"), NewString(""), NewString("yz")},
		"mixed":      {NewInt(1), NewFloat(2), NewString("x"), Null()},
		"null":       {Null()},
	}
	r := rand.New(rand.NewSource(1))
	fill := func(pool []Value, n int) (Vector, []Value) {
		var v Vector
		var vals []Value
		for range n {
			x := pool[r.Intn(len(pool))]
			v.Append(x)
			vals = append(vals, x)
		}
		return v, vals
	}
	check := func(name string, v *Vector, want []Value) {
		t.Helper()
		if v.N != len(want) {
			t.Fatalf("%s: %d values, want %d", name, v.N, len(want))
		}
		for i, w := range want {
			if got := v.Value(i); !sameValue(got, w) {
				t.Fatalf("%s: value %d is %v (%s, %x), want %v (%s, %x)", name, i, got, got.K, got.I, w, w.K, w.I)
			}
		}
	}
	for srcName, srcPool := range pools {
		for dstName, dstPool := range pools {
			for _, n := range []int{0, 1, 70} {
				name := srcName + " onto " + dstName
				src, srcVals := fill(srcPool, 90)
				dst, want := fill(dstPool, n)
				var sel []int32
				for range 1 + r.Intn(80) {
					k := int32(r.Intn(len(srcVals)+8)) - 8
					sel = append(sel, max(k, -1))
					if k < 0 {
						want = append(want, Null())
					} else {
						want = append(want, srcVals[k])
					}
				}
				dst.AppendSel(&src, sel)
				check(name, &dst, want)
				one := srcVals[len(srcVals)-1]
				dst.AppendSel(&src, []int32{int32(len(srcVals) - 1)})
				check(name+", one more", &dst, append(want, one))
			}
			bulk, want := fill(dstPool, r.Intn(3)*40)
			ints, floats := []int64{4, -1, 9}, []float64{0.5, negZero, math.NaN()}
			bulk.AppendInts(ints)
			bulk.AppendFloats(floats)
			for _, x := range ints {
				want = append(want, NewInt(x))
			}
			for _, x := range floats {
				want = append(want, NewFloat(x))
			}
			check("bulk onto "+dstName, &bulk, want)
		}
	}
}

// TestCompareAtAgainstCompare holds CompareAt to Compare over every pair of
// a pool's values, each held in vectors of every layout — its own kind
// with and without NULLs, all NULL, and mixed — so both the typed paths
// and the fallback answer: NaN payloads, -0 and +0, infinities, INT
// against FLOAT, VARCHARs that prefix each other, NULLs and BOOLEANs.
// EqualAt must select a position exactly where neither value is NULL and
// Compare finds them equal.
func TestCompareAtAgainstCompare(t *testing.T) {
	pool := []Value{Null(), NewInt(-3), NewInt(0), NewInt(2), NewInt(math.MaxInt64),
		NewFloat(2), NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(2.5),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.NaN()),
		NewFloat(math.Float64frombits(0xfff8000000000001)),
		NewString(""), NewString("a"), NewString("ab"), NewString("b"),
		NewBool(false), NewBool(true)}
	// holding returns x at position 1 of a vector laid out as layout says.
	holding := func(x Value, layout int) *Vector {
		first := x // layout 0: x's own kind, no NULL before it
		switch {
		case layout == 1: // a NULL first, so a typed vector carries a bitmap
			first = Null()
		case layout == 2 && x.K == KindString: // another kind first: mixed
			first = NewInt(1)
		case layout == 2:
			first = NewString("m")
		}
		var v Vector
		v.Append(first)
		v.Append(x)
		return &v
	}
	for _, x := range pool {
		for _, y := range pool {
			want := Compare(x, y)
			for la := range 3 {
				for lb := range 3 {
					if got := CompareAt(holding(x, la), 1, holding(y, lb), 1); got != want {
						t.Errorf("CompareAt(%v in layout %d, %v in layout %d) = %d, Compare = %d", x, la, y, lb, got, want)
					}
					equal := want == 0 && x.K != KindNull && y.K != KindNull
					if got := EqualAt(holding(x, la), []int32{1}, holding(y, lb), 1, nil); (len(got) == 1) != equal {
						t.Errorf("EqualAt(%v in layout %d, %v in layout %d) = %v, want equal %v", x, la, y, lb, got, equal)
					}
				}
			}
		}
	}
}
