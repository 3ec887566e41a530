package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"aggview/internal/schema"
	"aggview/internal/types"
)

func TestOperatorStrings(t *testing.T) {
	cmpWant := map[CmpOp]string{EQ: "=", NE: "<>", LT: "<", LE: "<=", GT: ">", GE: ">="}
	for op, want := range cmpWant {
		if op.String() != want {
			t.Errorf("%v.String() = %q", int(op), op.String())
		}
	}
	arithWant := map[ArithOp]string{Add: "+", Sub: "-", Mul: "*", Div: "/"}
	for op, want := range arithWant {
		if op.String() != want {
			t.Errorf("arith %v.String() = %q", int(op), op.String())
		}
	}
	if CmpOp(99).String() == "" || ArithOp(99).String() == "" {
		t.Errorf("unknown ops should render something")
	}
}

func TestLiteralHelpers(t *testing.T) {
	if BoolLit(true).Val.K != types.KindBool {
		t.Errorf("BoolLit kind")
	}
	if Lit(types.NewString("q")).Val.S() != "q" {
		t.Errorf("Lit value")
	}
	if FloatLit(1.5).String() != "1.5" {
		t.Errorf("FloatLit string")
	}
}

func TestSubstituteEmptyAndRenameEmpty(t *testing.T) {
	e := NewCmp(EQ, Col("a", "x"), IntLit(1))
	if Substitute(e, nil) != Expr(e) {
		t.Errorf("empty substitution should be identity")
	}
	if RenameRels(e, nil) != Expr(e) {
		t.Errorf("empty rename should be identity")
	}
	// Rename of a rel not present is a no-op structurally.
	r := RenameRels(e, map[string]string{"zz": "yy"})
	if r.String() != e.String() {
		t.Errorf("rename of absent rel changed expr: %s", r)
	}
}

func TestNotAndNegEvaluation(t *testing.T) {
	s := schema.Schema{{ID: schema.ColID{Rel: "t", Name: "b"}, Type: types.KindBool}}
	c, err := Compile(NewNot(Col("t", "b")), s)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c(types.Row{types.NewBool(false)}, nil)
	if err != nil || !v.Bool() {
		t.Fatalf("NOT false = %v %v", v, err)
	}
}

func TestConjunctsNil(t *testing.T) {
	if Conjuncts(nil) != nil {
		t.Errorf("Conjuncts(nil) != nil")
	}
}

func TestCompileErrorsPropagate(t *testing.T) {
	s := schema.Schema{{ID: schema.ColID{Rel: "t", Name: "x"}, Type: types.KindInt}}
	bad := And(NewCmp(EQ, Col("t", "x"), Col("zz", "q")))
	if _, err := Compile(bad, s); err == nil {
		t.Errorf("compile of unresolved column succeeded")
	}
	if _, err := CompilePredicate(bad, s); err == nil {
		t.Errorf("CompilePredicate of unresolved column succeeded")
	}
	badArith := NewArith(Add, Col("zz", "q"), IntLit(1))
	if _, err := Compile(badArith, s); err == nil {
		t.Errorf("compile of bad arith succeeded")
	}
	badNot := NewNot(Col("zz", "q"))
	if _, err := Compile(badNot, s); err == nil {
		t.Errorf("compile of bad not succeeded")
	}
}

func TestAggKindStringUnknown(t *testing.T) {
	if AggKind(99).String() == "" {
		t.Errorf("unknown agg kind should render")
	}
}

func TestResultTypeMinNilArg(t *testing.T) {
	if AggMin.ResultType(nil, nil) != types.KindNull {
		t.Errorf("MIN of nil arg should be unknown")
	}
	if AggMedian.ResultType(Col("t", "x"), nil) != types.KindFloat {
		t.Errorf("MEDIAN type")
	}
}

// TestSubstituteQuickIdempotentOnFreshNames: substituting names absent from
// the expression never changes its rendering (testing/quick over generated
// column names).
func TestSubstituteQuickIdempotentOnFreshNames(t *testing.T) {
	base := And(
		NewCmp(LT, Col("a", "x"), NewArith(Mul, Col("b", "y"), IntLit(3))),
		Or(NewCmp(EQ, Col("a", "z"), StrLit("s")), NewNot(Col("b", "w"))),
	)
	f := func(rel, name string) bool {
		if rel == "a" || rel == "b" {
			return true
		}
		m := map[schema.ColID]Expr{{Rel: rel, Name: name}: IntLit(0)}
		return Substitute(base, m).String() == base.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRenameRoundTripQuick: renaming a→tmp→a restores the rendering.
func TestRenameRoundTripQuick(t *testing.T) {
	base := And(
		NewCmp(GE, Col("a", "x"), Col("b", "y")),
		NewCmp(NE, Col("a", "k"), IntLit(7)),
	)
	there := RenameRels(base, map[string]string{"a": "tmp$x"})
	back := RenameRels(there, map[string]string{"tmp$x": "a"})
	if back.String() != base.String() {
		t.Fatalf("round trip changed expr: %s vs %s", back, base)
	}
	if !strings.Contains(there.String(), "tmp$x.x") {
		t.Fatalf("rename missing: %s", there)
	}
}

func TestKindWidthAndNumeric(t *testing.T) {
	if types.KindInt.Width() != 8 || types.KindBool.Width() != 1 || types.KindString.Width() != 16 {
		t.Errorf("widths wrong")
	}
	if !types.KindFloat.Numeric() || types.KindString.Numeric() {
		t.Errorf("numeric flags wrong")
	}
}

func TestLogicManyTerms(t *testing.T) {
	s := schema.Schema{{ID: schema.ColID{Rel: "t", Name: "x"}, Type: types.KindInt}}
	terms := []Expr{
		NewCmp(GT, Col("t", "x"), IntLit(0)),
		NewCmp(LT, Col("t", "x"), IntLit(10)),
		NewCmp(NE, Col("t", "x"), IntLit(5)),
	}
	c, err := Compile(And(terms...), s)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := c(types.Row{types.NewInt(3)}, nil)
	if !v.Bool() {
		t.Errorf("3 should pass")
	}
	v, _ = c(types.Row{types.NewInt(5)}, nil)
	if v.Bool() {
		t.Errorf("5 should fail")
	}
}
