package types

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INT",
		KindFloat:  "FLOAT",
		KindString: "VARCHAR",
		KindBool:   "BOOLEAN",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.K != KindInt || v.Int() != 42 || v.Float() != 42.0 {
		t.Errorf("NewInt(42) = %+v", v)
	}
	if v := NewFloat(2.5); v.K != KindFloat || v.Float() != 2.5 || v.Int() != 2 {
		t.Errorf("NewFloat(2.5) = %+v", v)
	}
	if v := NewString("hi"); v.K != KindString || v.S() != "hi" {
		t.Errorf("NewString = %+v", v)
	}
	if v := NewBool(true); !v.Bool() {
		t.Errorf("NewBool(true).Bool() = false")
	}
	if v := NewBool(false); v.Bool() {
		t.Errorf("NewBool(false).Bool() = true")
	}
	if !Null().IsNull() {
		t.Errorf("Null().IsNull() = false")
	}
	if NewInt(1).IsNull() {
		t.Errorf("NewInt(1).IsNull() = true")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewString("x"), "'x'"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompareBasic(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(3), NewFloat(2.5), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{Null(), NewInt(0), -1},
		{NewInt(0), Null(), 1},
		{Null(), Null(), 0},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareMixedKindsTotalOrder(t *testing.T) {
	// Values of distinct non-numeric kinds must have a deterministic order.
	a, b := NewString("z"), NewBool(true)
	if Compare(a, b)+Compare(b, a) != 0 {
		t.Errorf("mixed-kind comparison is not antisymmetric")
	}
}

func randValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null()
	case 1:
		return NewInt(int64(r.Intn(20) - 10))
	case 2:
		return NewFloat(float64(r.Intn(40))/4 - 5)
	case 3:
		return NewString(string(rune('a' + r.Intn(6))))
	default:
		return NewBool(r.Intn(2) == 0)
	}
}

func TestComparePropertyReflexiveAntisymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := randValue(r), randValue(r)
		if Compare(a, a) != 0 {
			t.Fatalf("Compare(%v,%v) != 0", a, a)
		}
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("Compare(%v,%v) not antisymmetric", a, b)
		}
	}
}

func TestComparePropertyTransitive(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		vs := []Value{randValue(r), randValue(r), randValue(r)}
		sort.Slice(vs, func(i, j int) bool { return Compare(vs[i], vs[j]) < 0 })
		if Compare(vs[0], vs[1]) > 0 || Compare(vs[1], vs[2]) > 0 || Compare(vs[0], vs[2]) > 0 {
			t.Fatalf("sort order violated: %v", vs)
		}
	}
}

// TestAppendKeyAgreesWithEqual: the byte encoding that keys the reference
// executor's maps and picks spill partitions calls the same values equal
// as Equal, over random values and over the pool the key table is tested
// with.
func TestAppendKeyAgreesWithEqual(t *testing.T) {
	for _, a := range keyValuePool {
		for _, b := range keyValuePool {
			ka, kb := AppendKey(nil, a), AppendKey(nil, b)
			if Equal(a, b) != bytes.Equal(ka, kb) {
				t.Errorf("%v / %v: Equal=%v, encodings %x %x", a, b, Equal(a, b), ka, kb)
			}
		}
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		a, b := randValue(r), randValue(r)
		ka := AppendKey(nil, a)
		kb := AppendKey(nil, b)
		if Equal(a, b) != bytes.Equal(ka, kb) {
			t.Fatalf("key/equality mismatch for %v vs %v: Equal=%v keys=%x/%x",
				a, b, Equal(a, b), ka, kb)
		}
	}
}

func TestAppendKeySelfDelimiting(t *testing.T) {
	// Concatenated keys of different rows must not collide.
	r1 := Row{NewString("ab"), NewString("c")}
	r2 := Row{NewString("a"), NewString("bc")}
	k1 := r1.AppendKey(nil, []int{0, 1})
	k2 := r2.AppendKey(nil, []int{0, 1})
	if bytes.Equal(k1, k2) {
		t.Fatalf("row keys collide: %x", k1)
	}
}

func TestAppendKeyNumericCrossKind(t *testing.T) {
	ka := AppendKey(nil, NewInt(7))
	kb := AppendKey(nil, NewFloat(7.0))
	if !bytes.Equal(ka, kb) {
		t.Fatalf("INT 7 and FLOAT 7.0 should share a key: %x vs %x", ka, kb)
	}
}

func TestRowCloneIndependence(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(99)
	if r[0].Int() != 1 {
		t.Fatalf("Clone shares backing array")
	}
}

func TestRowDiskWidth(t *testing.T) {
	r := Row{NewInt(1), NewString("abcd"), NewBool(true)}
	want := 4 + 8 + (4 + 2) + 1
	if got := r.DiskWidth(); got != want {
		t.Fatalf("DiskWidth = %d, want %d", got, want)
	}
}

func TestCompareRows(t *testing.T) {
	a := Row{NewInt(1), NewString("b")}
	b := Row{NewInt(1), NewString("c")}
	if CompareRows(a, b, []int{0}) != 0 {
		t.Errorf("rows equal on col 0")
	}
	if CompareRows(a, b, []int{0, 1}) != -1 {
		t.Errorf("a < b on (0,1)")
	}
	if CompareRows(b, a, []int{1}) != 1 {
		t.Errorf("b > a on col 1")
	}
}

func TestCompareQuickNumeric(t *testing.T) {
	f := func(x, y int32) bool {
		a, b := NewInt(int64(x)), NewFloat(float64(y))
		got := Compare(a, b)
		switch {
		case float64(x) < float64(y):
			return got == -1
		case float64(x) > float64(y):
			return got == 1
		default:
			return got == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiskWidthPositive(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		v := randValue(r)
		if v.DiskWidth() <= 0 {
			t.Fatalf("DiskWidth(%v) = %d", v, v.DiskWidth())
		}
	}
}
