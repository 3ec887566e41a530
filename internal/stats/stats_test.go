package stats

import (
	"math"
	"reflect"
	"testing"

	"aggview/internal/expr"
	"aggview/internal/schema"
	"aggview/internal/types"
)

// ar is the arena (and so the column index) every test summary shares.
var ar = NewArena()

func empRel() *Relation {
	r := ar.NewRelation(10000)
	r.Set(schema.ColID{Rel: "e", Name: "eno"}, ColInfo{NDV: 10000, Min: types.NewInt(0), Max: types.NewInt(9999)})
	r.Set(schema.ColID{Rel: "e", Name: "dno"}, ColInfo{NDV: 100, Min: types.NewInt(0), Max: types.NewInt(99)})
	r.Set(schema.ColID{Rel: "e", Name: "age"}, ColInfo{NDV: 50, Min: types.NewInt(20), Max: types.NewInt(70)})
	return r
}

func deptRel() *Relation {
	r := ar.NewRelation(100)
	r.Set(schema.ColID{Rel: "d", Name: "dno"}, ColInfo{NDV: 100, Min: types.NewInt(0), Max: types.NewInt(99)})
	return r
}

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", msg, got, want, tol)
	}
}

func TestEqualityConstSelectivity(t *testing.T) {
	r := empRel()
	sel := Selectivity(expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.IntLit(5)), r)
	approx(t, sel, 0.01, 1e-9, "dno=5")
	sel = Selectivity(expr.NewCmp(expr.NE, expr.Col("e", "dno"), expr.IntLit(5)), r)
	approx(t, sel, 0.99, 1e-9, "dno<>5")
}

func TestRangeSelectivityInterpolation(t *testing.T) {
	r := empRel()
	// age in [20,70]; age < 22 → 2/50.
	sel := Selectivity(expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.IntLit(22)), r)
	approx(t, sel, 0.04, 1e-9, "age<22")
	sel = Selectivity(expr.NewCmp(expr.GE, expr.Col("e", "age"), expr.IntLit(45)), r)
	approx(t, sel, 0.5, 1e-9, "age>=45")
	// Constant on the left flips the operator.
	sel = Selectivity(expr.NewCmp(expr.GT, expr.IntLit(22), expr.Col("e", "age")), r)
	approx(t, sel, 0.04, 1e-9, "22>age")
	// Out-of-range constants clamp.
	sel = Selectivity(expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.IntLit(200)), r)
	approx(t, sel, 1, 1e-9, "age<200")
	sel = Selectivity(expr.NewCmp(expr.GT, expr.Col("e", "age"), expr.IntLit(200)), r)
	approx(t, sel, 0, 1e-9, "age>200")
}

func TestRangeSelectivityUnknownColumn(t *testing.T) {
	r := ar.NewRelation(100)
	sel := Selectivity(expr.NewCmp(expr.LT, expr.Col("x", "c"), expr.IntLit(5)), r)
	approx(t, sel, DefaultRangeSel, 1e-9, "unknown range")
	sel = Selectivity(expr.NewCmp(expr.EQ, expr.Col("x", "c"), expr.StrLit("q")), r)
	approx(t, sel, 1.0/100, 1e-9, "unknown eq defaults to 1/rows NDV")
}

func TestSingleValuedColumnRange(t *testing.T) {
	r := ar.NewRelation(10)
	id := schema.ColID{Rel: "t", Name: "c"}
	r.Set(id, ColInfo{NDV: 1, Min: types.NewInt(5), Max: types.NewInt(5)})
	if s := Selectivity(expr.NewCmp(expr.LT, expr.ColOf(id), expr.IntLit(9)), r); s != 1 {
		t.Errorf("5<9 sel = %g", s)
	}
	if s := Selectivity(expr.NewCmp(expr.GT, expr.ColOf(id), expr.IntLit(9)), r); s != 0 {
		t.Errorf("5>9 sel = %g", s)
	}
	if s := Selectivity(expr.NewCmp(expr.LE, expr.ColOf(id), expr.IntLit(5)), r); s != 1 {
		t.Errorf("5<=5 sel = %g", s)
	}
	if s := Selectivity(expr.NewCmp(expr.GE, expr.ColOf(id), expr.IntLit(6)), r); s != 0 {
		t.Errorf("5>=6 sel = %g", s)
	}
}

func TestLogicSelectivity(t *testing.T) {
	r := empRel()
	eq := expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.IntLit(5))  // 0.01
	lt := expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.IntLit(45)) // 0.5
	and := Selectivity(expr.And(eq, lt), r)
	approx(t, and, 0.005, 1e-9, "AND")
	or := Selectivity(expr.Or(eq, lt), r)
	approx(t, or, 1-(1-0.01)*(1-0.5), 1e-9, "OR")
	not := Selectivity(expr.NewNot(lt), r)
	approx(t, not, 0.5, 1e-9, "NOT")
}

func TestConstPredicateSelectivity(t *testing.T) {
	r := empRel()
	if s := Selectivity(expr.BoolLit(true), r); s != 1 {
		t.Errorf("TRUE = %g", s)
	}
	if s := Selectivity(expr.BoolLit(false), r); s != 0 {
		t.Errorf("FALSE = %g", s)
	}
}

func TestColColSelectivity(t *testing.T) {
	r := empRel()
	// Two columns of the same relation: EQ uses 1/max(NDV).
	sel := Selectivity(expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("e", "age")), r)
	approx(t, sel, 1.0/100, 1e-9, "dno=age")
	sel = Selectivity(expr.NewCmp(expr.GT, expr.Col("e", "dno"), expr.Col("e", "age")), r)
	approx(t, sel, DefaultRangeSel, 1e-9, "dno>age")
}

func TestJoinSelectivity(t *testing.T) {
	e, d := empRel(), deptRel()
	pred := expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno"))
	sel := JoinSelectivity(pred, e, d)
	approx(t, sel, 1.0/100, 1e-9, "e.dno=d.dno")
	// Result cardinality would be 10000*100/100 = 10000: every emp matches.
	rows := e.Rows * d.Rows * sel
	approx(t, rows, 10000, 1e-6, "join rows")
	// Non-equi join predicates fall back to range defaults.
	ne := expr.NewCmp(expr.LT, expr.Col("e", "dno"), expr.Col("d", "dno"))
	approx(t, JoinSelectivity(ne, e, d), DefaultRangeSel, 1e-9, "e.dno<d.dno")
}

func TestMergeForJoin(t *testing.T) {
	e, d := empRel(), deptRel()
	m := ar.MergeForJoin(e, d)
	if m.Rows != 1e6 {
		t.Fatalf("rows = %g", m.Rows)
	}
	if m.Col(schema.ColID{Rel: "d", Name: "dno"}).NDV != 100 {
		t.Fatalf("lost right column stats")
	}
	if m.Col(schema.ColID{Rel: "e", Name: "age"}).NDV != 50 {
		t.Fatalf("lost left column stats")
	}
}

func TestDistinctGroupsSmallDomain(t *testing.T) {
	r := empRel()
	g := DistinctGroups(r, []schema.ColID{{Rel: "e", Name: "dno"}})
	// 10000 rows into 100 groups: essentially all groups occupied.
	if g < 99 || g > 100 {
		t.Errorf("groups = %g, want ≈100", g)
	}
}

func TestDistinctGroupsSparse(t *testing.T) {
	// 10 rows into 1000 possible keys: nearly all rows form their own group.
	r := ar.NewRelation(10)
	id := schema.ColID{Rel: "t", Name: "k"}
	r.Set(id, ColInfo{NDV: 1000})
	g := DistinctGroups(r, []schema.ColID{id})
	if g < 9.9 || g > 10 {
		t.Errorf("groups = %g, want ≈10", g)
	}
}

func TestDistinctGroupsComposite(t *testing.T) {
	r := empRel()
	g := DistinctGroups(r, []schema.ColID{
		{Rel: "e", Name: "dno"}, {Rel: "e", Name: "age"},
	})
	// Domain 100*50 = 5000 keys, 10000 rows: Cardenas ≈ 5000*(1-(1-1/5000)^10000) ≈ 4323.
	if g < 4000 || g > 5000 {
		t.Errorf("composite groups = %g", g)
	}
}

func TestDistinctGroupsEdgeCases(t *testing.T) {
	r := ar.NewRelation(0)
	if g := DistinctGroups(r, nil); g != 0 {
		t.Errorf("empty input groups = %g", g)
	}
	r = ar.NewRelation(50)
	if g := DistinctGroups(r, nil); g != 1 {
		t.Errorf("scalar agg groups = %g", g)
	}
	// Grouping by a key: every row its own group.
	id := schema.ColID{Rel: "t", Name: "pk"}
	r.Set(id, ColInfo{NDV: 50})
	if g := DistinctGroups(r, []schema.ColID{id}); g != 50 {
		t.Errorf("key-grouped = %g", g)
	}
}

func TestCloneAndClamp(t *testing.T) {
	r := empRel()
	c := r.Clone()
	c.Rows = 10
	c.ClampNDVs()
	if c.Col(schema.ColID{Rel: "e", Name: "eno"}).NDV != 10 {
		t.Errorf("clamp failed: %g", c.Col(schema.ColID{Rel: "e", Name: "eno"}).NDV)
	}
	if r.Col(schema.ColID{Rel: "e", Name: "eno"}).NDV != 10000 {
		t.Errorf("clone shares maps")
	}
}

func TestColDefaultNDV(t *testing.T) {
	r := ar.NewRelation(42)
	ci := r.Col(schema.ColID{Rel: "x", Name: "y"})
	if ci.NDV != 42 {
		t.Errorf("default NDV = %g", ci.NDV)
	}
}

func TestMergeForJoinRightWinsAndLaterColumns(t *testing.T) {
	a := NewArena()
	shared := schema.ColID{Rel: "x", Name: "k"}
	l := a.NewRelation(10)
	l.Set(shared, ColInfo{NDV: 3})
	// A column registered after l was created: l's slice is shorter than
	// the index, r's covers it.
	late := schema.ColID{Rel: "y", Name: "late"}
	r := a.NewRelation(20)
	r.Set(shared, ColInfo{NDV: 8, Min: types.NewInt(1), Max: types.NewInt(9)})
	r.Set(late, ColInfo{NDV: 5})
	m := a.MergeForJoin(l, r)
	if got := m.Col(shared); got.NDV != 8 || got.Max.I != 9 {
		t.Errorf("clash: got %+v, want the right side's entry", got)
	}
	if m.Col(late).NDV != 5 || l.Has(late) {
		t.Errorf("late column: merged NDV %g, left has=%v", m.Col(late).NDV, l.Has(late))
	}
	// The merge is a copy: clamping it leaves the inputs alone.
	m.Rows = 2
	m.ClampNDVs()
	if r.Col(shared).NDV != 8 || m.Col(shared).NDV != 2 {
		t.Errorf("clamp leaked: input %g, merged %g", r.Col(shared).NDV, m.Col(shared).NDV)
	}
}

func TestCopySharesRangeAndDefaults(t *testing.T) {
	a := NewArena()
	src := a.NewRelation(100)
	id := schema.ColID{Rel: "e", Name: "age"}
	src.Set(id, ColInfo{NDV: 50, Min: types.NewInt(20), Max: types.NewInt(70)})
	dst := a.NewRelation(100)
	as := schema.ColID{Rel: "v", Name: "age"}
	o := dst.Copy(as, src, id)
	if got := dst.Col(as); got.NDV != 50 || got.Min.I != 20 || got.Max.I != 70 {
		t.Errorf("copied stats = %+v", got)
	}
	dst.SetNDVAt(o, 7)
	if got := dst.Col(as); got.NDV != 7 || got.Max.I != 70 {
		t.Errorf("SetNDVAt lost the range: %+v", got)
	}
	// An unknown source column copies as its default: distinct per row.
	dst.Copy(schema.ColID{Rel: "v", Name: "x"}, src, schema.ColID{Rel: "e", Name: "nope"})
	if got := dst.Col(schema.ColID{Rel: "v", Name: "x"}).NDV; got != 100 {
		t.Errorf("default copy NDV = %g", got)
	}
}

func TestThetaJoinSelectivityReadsBothSides(t *testing.T) {
	e, d := empRel(), deptRel()
	// col = const over a column only the right side knows: resolved there,
	// not defaulted from the cross product's row count.
	p := expr.NewCmp(expr.EQ, expr.Col("d", "dno"), expr.IntLit(5))
	approx(t, JoinSelectivity(p, e, d), 1.0/100, 1e-12, "d.dno=5 over e×d")
	// A column neither side knows defaults to the cross product's rows.
	u := expr.NewCmp(expr.EQ, expr.Col("zz", "c"), expr.IntLit(5))
	approx(t, JoinSelectivity(u, e, d), 1/(e.Rows*d.Rows), 1e-15, "unknown column over e×d")
}

func TestJoinSelectivityOnlyReadsTheIndex(t *testing.T) {
	e, d := empRel(), deptRel()
	before := ar.Cols.Len()
	// An equality on a column no summary has met: single-valued, and the
	// estimate registers nothing.
	u := expr.NewCmp(expr.EQ, expr.Col("zz", "c"), expr.Col("d", "dno"))
	approx(t, JoinSelectivity(u, e, d), 1/d.Col(schema.ColID{Rel: "d", Name: "dno"}).NDV, 1e-12, "zz.c=d.dno")
	if ar.Cols.Len() != before {
		t.Errorf("JoinSelectivity registered %d columns", ar.Cols.Len()-before)
	}
	defer func() {
		if recover() == nil {
			t.Error("summaries of two arenas: want a panic")
		}
	}()
	JoinSelectivity(u, e, NewArena().NewRelation(1))
}

// TestColStatHoldsNoPointer: a summary's slots are copied on every join the
// search costs and cleared on every Arena.Reset. A pointer anywhere in a slot
// turns each copy into a write-barriered one and each clear into a GC scan, so
// the slot type must stay pointer-free.
func TestColStatHoldsNoPointer(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[i]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("colStat%s is a %s: a slot must hold no pointer", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(colStat{}), "")
}

// TestCloneReadsRangesAfterReset: Optimize hands out a Clone of the winning
// plan's summary (Plan.Info) and then recycles the arena. The clone must still
// read the value ranges it was built with, though the arena's chunks are
// reused and its column index replaced.
func TestCloneReadsRangesAfterReset(t *testing.T) {
	a := NewArena()
	age := schema.ColID{Rel: "e", Name: "age"}
	r := a.NewRelation(100)
	r.Set(age, ColInfo{NDV: 50, Min: types.NewInt(20), Max: types.NewInt(70)})
	c := r.Clone()
	a.Reset()
	// The next optimization reuses the chunks and records other ranges.
	for i := 0; i < 4; i++ {
		n := a.NewRelation(1)
		n.Set(age, ColInfo{NDV: 2, Min: types.NewInt(-5), Max: types.NewInt(-1)})
	}
	if got := c.Col(age); got.NDV != 50 || got.Min.I != 20 || got.Max.I != 70 {
		t.Fatalf("clone after Reset reads %+v, want NDV 50 over [20, 70]", got)
	}
	sel := Selectivity(expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.IntLit(45)), c)
	approx(t, sel, 0.5, 1e-12, "age<45 over the detached clone")
}
