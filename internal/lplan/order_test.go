package lplan

import (
	"slices"
	"testing"

	"aggview/internal/expr"
	"aggview/internal/schema"
)

func TestCovers(t *testing.T) {
	a := schema.ColID{Rel: "t", Name: "a"}
	b := schema.ColID{Rel: "t", Name: "b"}
	c := schema.ColID{Rel: "t", Name: "c"}
	for _, tc := range []struct {
		have, want []schema.ColID
		ok         bool
	}{
		{[]schema.ColID{a, b}, []schema.ColID{a, b}, true},
		{[]schema.ColID{a, b, c}, []schema.ColID{a, b}, true},
		{[]schema.ColID{a, b}, []schema.ColID{b, a}, false}, // a permutation is another order
		{[]schema.ColID{a, c}, []schema.ColID{a, b}, false},
		{[]schema.ColID{a}, []schema.ColID{a, b}, false},
		{nil, []schema.ColID{a}, false},
		{nil, nil, true},
	} {
		if got := Covers(tc.have, tc.want); got != tc.ok {
			t.Errorf("Covers(%v, %v) = %v, want %v", tc.have, tc.want, got, tc.ok)
		}
	}
}

// TestMergeJoinOrderUnderProj: a merge join is in its left keys' order, and
// a projection keeps exactly the prefix of keys it passes through.
func TestMergeJoinOrderUnderProj(t *testing.T) {
	c := empDept(t)
	eDno, eEno := schema.ColID{Rel: "e", Name: "dno"}, schema.ColID{Rel: "e", Name: "eno"}
	eSal, dBudget := schema.ColID{Rel: "e", Name: "sal"}, schema.ColID{Rel: "d", Name: "budget"}
	j := &Join{
		L: scan(t, c, "emp", "e"), R: scan(t, c, "dept", "d"), Method: JoinMerge,
		Preds: []expr.Expr{
			// The second key is written right input first: EquiKeys turns it.
			expr.NewCmp(expr.EQ, expr.Col("e", "dno"), expr.Col("d", "dno")),
			expr.NewCmp(expr.EQ, expr.Col("d", "budget"), expr.Col("e", "sal")),
			expr.NewCmp(expr.LT, expr.Col("e", "eno"), expr.Col("d", "dno")),
		},
	}
	if l, r, res := j.EquiKeys(); !slices.Equal(l, []schema.ColID{eDno, eSal}) ||
		!slices.Equal(r, []schema.ColID{{Rel: "d", Name: "dno"}, dBudget}) || len(res) != 1 {
		t.Fatalf("EquiKeys = %v, %v, %v", l, r, res)
	}
	for _, tc := range []struct {
		proj, want []schema.ColID
	}{
		{nil, []schema.ColID{eDno, eSal}},
		{[]schema.ColID{eSal, eDno}, []schema.ColID{eDno, eSal}},
		{[]schema.ColID{eDno, eEno}, []schema.ColID{eDno}},
		{[]schema.ColID{eSal, dBudget}, nil}, // the first key is gone, so the second orders nothing
	} {
		j.Proj = tc.proj
		if got := Order(j); !slices.Equal(got, tc.want) {
			t.Errorf("Proj %v: Order = %v, want %v", tc.proj, got, tc.want)
		}
	}
	for _, m := range []JoinMethod{JoinHash, JoinBlockNL, JoinUnset} {
		j.Method, j.Proj = m, nil
		if got := Order(j); len(got) != 0 {
			t.Errorf("%v join: Order = %v, want none", m, got)
		}
	}
}

// TestOrderRuleTable walks the rest of the rule: sort aggregation's order
// follows its grouping columns through Outputs' renames and stops at the
// first one Outputs drops; a Filter keeps its input's; an ascending Sort has
// its keys'; everything else has none.
func TestOrderRuleTable(t *testing.T) {
	c := empDept(t)
	eDno, eAge := schema.ColID{Rel: "e", Name: "dno"}, schema.ColID{Rel: "e", Name: "age"}
	vDno, vAge := schema.ColID{Rel: "v", Name: "dno"}, schema.ColID{Rel: "v", Name: "age"}
	g := &GroupBy{In: scan(t, c, "emp", "e"), GroupCols: []schema.ColID{eDno, eAge}, Method: AggSort}
	for _, tc := range []struct {
		outputs []NamedExpr
		want    []schema.ColID
	}{
		{nil, []schema.ColID{eDno, eAge}},
		{[]NamedExpr{{E: expr.ColOf(eAge), As: vAge}, {E: expr.ColOf(eDno), As: vDno}}, []schema.ColID{vDno, vAge}},
		{[]NamedExpr{{E: expr.ColOf(eDno), As: vDno}}, []schema.ColID{vDno}},
		{[]NamedExpr{{E: expr.ColOf(eAge), As: vAge}}, nil},
	} {
		g.Outputs = tc.outputs
		if got := Order(g); !slices.Equal(got, tc.want) {
			t.Errorf("Outputs %v: Order = %v, want %v", tc.outputs, got, tc.want)
		}
	}
	g.Outputs, g.Method = nil, AggHash
	if got := Order(g); len(got) != 0 {
		t.Errorf("hash aggregation: Order = %v, want none", got)
	}

	asc := &Sort{In: scan(t, c, "emp", "e"), By: []schema.ColID{eDno}}
	desc := &Sort{In: asc.In, By: asc.By, Desc: []bool{true}}
	for _, tc := range []struct {
		n    Node
		want []schema.ColID
	}{
		{asc, []schema.ColID{eDno}},
		{desc, nil},
		{&Filter{In: asc, Preds: []expr.Expr{expr.NewCmp(expr.LT, expr.Col("e", "age"), expr.IntLit(30))}}, []schema.ColID{eDno}},
		{&Project{In: asc, Items: []NamedExpr{{E: expr.ColOf(eDno), As: eDno}}}, nil},
		{asc.In, nil},
		{&Input{Cols: asc.In.Schema()}, nil},
	} {
		if got := Order(tc.n); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Order = %v, want %v", tc.n.Describe(), got, tc.want)
		}
	}
}
