package expr

import (
	"strings"
	"testing"

	"aggview/internal/schema"
	"aggview/internal/types"
)

func testSchema() schema.Schema {
	return schema.Schema{
		{ID: schema.ColID{Rel: "e", Name: "sal"}, Type: types.KindInt},
		{ID: schema.ColID{Rel: "e", Name: "age"}, Type: types.KindInt},
		{ID: schema.ColID{Rel: "d", Name: "budget"}, Type: types.KindFloat},
		{ID: schema.ColID{Rel: "d", Name: "name"}, Type: types.KindString},
	}
}

func evalOn(t *testing.T, e Expr, row types.Row) types.Value {
	t.Helper()
	c, err := Compile(e, testSchema())
	if err != nil {
		t.Fatalf("Compile(%s): %v", e, err)
	}
	v, err := c(row, nil)
	if err != nil {
		t.Fatalf("eval(%s): %v", e, err)
	}
	return v
}

var sampleRow = types.Row{
	types.NewInt(5000), types.NewInt(30), types.NewFloat(1e6), types.NewString("toys"),
}

func TestCompileColRefAndConst(t *testing.T) {
	if v := evalOn(t, Col("e", "sal"), sampleRow); v.Int() != 5000 {
		t.Errorf("e.sal = %v", v)
	}
	if v := evalOn(t, IntLit(7), sampleRow); v.Int() != 7 {
		t.Errorf("7 = %v", v)
	}
	if v := evalOn(t, StrLit("x"), sampleRow); v.S() != "x" {
		t.Errorf("'x' = %v", v)
	}
}

func TestCompileMissingColumn(t *testing.T) {
	if _, err := Compile(Col("z", "q"), testSchema()); err == nil {
		t.Fatalf("expected error for missing column")
	}
}

func TestCmpOperators(t *testing.T) {
	cases := []struct {
		op   CmpOp
		l, r Expr
		want bool
	}{
		{EQ, Col("e", "age"), IntLit(30), true},
		{NE, Col("e", "age"), IntLit(30), false},
		{LT, Col("e", "age"), IntLit(40), true},
		{LE, Col("e", "age"), IntLit(30), true},
		{GT, Col("e", "sal"), IntLit(4000), true},
		{GE, Col("e", "sal"), IntLit(5001), false},
		{EQ, Col("d", "budget"), FloatLit(1e6), true},
	}
	for _, c := range cases {
		got := evalOn(t, NewCmp(c.op, c.l, c.r), sampleRow)
		if got.Bool() != c.want {
			t.Errorf("%s %s %s = %v, want %v", c.l, c.op, c.r, got, c.want)
		}
	}
}

func TestArithIntAndFloat(t *testing.T) {
	if v := evalOn(t, NewArith(Add, Col("e", "sal"), IntLit(1)), sampleRow); v.K != types.KindInt || v.I != 5001 {
		t.Errorf("sal+1 = %v", v)
	}
	if v := evalOn(t, NewArith(Mul, Col("e", "age"), IntLit(2)), sampleRow); v.I != 60 {
		t.Errorf("age*2 = %v", v)
	}
	if v := evalOn(t, NewArith(Div, Col("e", "sal"), IntLit(2)), sampleRow); v.K != types.KindFloat || v.F() != 2500 {
		t.Errorf("sal/2 = %v", v)
	}
	if v := evalOn(t, NewArith(Sub, Col("d", "budget"), FloatLit(0.5)), sampleRow); v.F() != 1e6-0.5 {
		t.Errorf("budget-0.5 = %v", v)
	}
}

func TestDivisionByZero(t *testing.T) {
	c, err := Compile(NewArith(Div, IntLit(1), IntLit(0)), testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c(sampleRow, nil); err == nil {
		t.Fatalf("expected division-by-zero error")
	}
}

func TestLogicShortCircuitSemantics(t *testing.T) {
	tr := NewCmp(EQ, IntLit(1), IntLit(1))
	fa := NewCmp(EQ, IntLit(1), IntLit(2))
	if !evalOn(t, And(tr, tr), sampleRow).Bool() {
		t.Errorf("true AND true")
	}
	if evalOn(t, And(tr, fa), sampleRow).Bool() {
		t.Errorf("true AND false")
	}
	if !evalOn(t, Or(fa, tr), sampleRow).Bool() {
		t.Errorf("false OR true")
	}
	if evalOn(t, Or(fa, fa), sampleRow).Bool() {
		t.Errorf("false OR false")
	}
	if evalOn(t, NewNot(tr), sampleRow).Bool() {
		t.Errorf("NOT true")
	}
}

func TestCompilePredicateNil(t *testing.T) {
	f, err := CompilePredicate(nil, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := f(sampleRow, nil)
	if err != nil || !ok {
		t.Fatalf("nil predicate should accept, got %v %v", ok, err)
	}
}

func TestColumnsAndRels(t *testing.T) {
	e := And(
		NewCmp(EQ, Col("e", "sal"), Col("d", "budget")),
		NewCmp(GT, Col("e", "sal"), IntLit(0)),
	)
	cols := Columns(e)
	if len(cols) != 2 {
		t.Fatalf("Columns = %v", cols)
	}
	rels := Rels(e)
	if len(rels) != 2 || rels[0] != "e" || rels[1] != "d" {
		t.Fatalf("Rels = %v", rels)
	}
}

func TestSubstituteAndRename(t *testing.T) {
	e := NewCmp(GT, Col("e", "sal"), Col("b", "Asal"))
	sub := Substitute(e, map[schema.ColID]Expr{
		{Rel: "b", Name: "Asal"}: NewArith(Div, Col("e", "sal"), IntLit(2)),
	})
	if !strings.Contains(sub.String(), "e.sal / 2") {
		t.Errorf("Substitute result: %s", sub)
	}
	// The original must be untouched.
	if !strings.Contains(e.String(), "b.Asal") {
		t.Errorf("Substitute mutated original: %s", e)
	}
	ren := RenameRels(e, map[string]string{"b": "v"})
	if ren.String() != "e.sal > v.Asal" {
		t.Errorf("RenameRels = %s", ren)
	}
}

func TestConjunctsAndAndAll(t *testing.T) {
	a := NewCmp(EQ, Col("e", "sal"), IntLit(1))
	b := NewCmp(EQ, Col("e", "age"), IntLit(2))
	c := NewCmp(EQ, Col("d", "name"), StrLit("x"))
	e := And(a, And(b, c))
	cj := Conjuncts(e)
	if len(cj) != 3 {
		t.Fatalf("Conjuncts = %d, want 3", len(cj))
	}
	if AndAll(nil) != nil {
		t.Errorf("AndAll(nil) != nil")
	}
	if AndAll([]Expr{a}) != Expr(a) {
		t.Errorf("AndAll singleton should be identity")
	}
	or := Or(a, b)
	if len(Conjuncts(or)) != 1 {
		t.Errorf("OR must stay one conjunct")
	}
}

func TestEquiJoinDetection(t *testing.T) {
	l, r, ok := EquiJoin(NewCmp(EQ, Col("e", "dno"), Col("d", "dno")))
	if !ok || l.Rel != "e" || r.Rel != "d" {
		t.Fatalf("EquiJoin = %v %v %v", l, r, ok)
	}
	if _, _, ok := EquiJoin(NewCmp(LT, Col("e", "dno"), Col("d", "dno"))); ok {
		t.Errorf("< is not an equi-join")
	}
	if _, _, ok := EquiJoin(NewCmp(EQ, Col("e", "dno"), IntLit(3))); ok {
		t.Errorf("col=const is not an equi-join")
	}
	if _, _, ok := EquiJoin(NewCmp(EQ, Col("e", "a"), Col("e", "b"))); ok {
		t.Errorf("same-relation equality is not a join predicate")
	}
}

func TestCmpOpFlip(t *testing.T) {
	cases := map[CmpOp]CmpOp{EQ: EQ, NE: NE, LT: GT, LE: GE, GT: LT, GE: LE}
	for in, want := range cases {
		if got := in.Flip(); got != want {
			t.Errorf("%s.Flip() = %s, want %s", in, got, want)
		}
	}
}

func TestTypeInference(t *testing.T) {
	s := testSchema()
	if Col("e", "sal").Type(s) != types.KindInt {
		t.Errorf("e.sal type")
	}
	if NewArith(Add, Col("e", "sal"), Col("e", "age")).Type(s) != types.KindInt {
		t.Errorf("int+int type")
	}
	if NewArith(Div, Col("e", "sal"), IntLit(2)).Type(s) != types.KindFloat {
		t.Errorf("div type must be FLOAT")
	}
	if NewCmp(EQ, Col("e", "sal"), IntLit(2)).Type(s) != types.KindBool {
		t.Errorf("cmp type must be BOOL")
	}
}

func TestExprStrings(t *testing.T) {
	e := And(NewCmp(LT, Col("e", "age"), IntLit(22)), NewCmp(EQ, Col("d", "name"), StrLit("toys")))
	want := "(e.age < 22 AND d.name = 'toys')"
	if e.String() != want {
		t.Errorf("String = %q, want %q", e.String(), want)
	}
}
